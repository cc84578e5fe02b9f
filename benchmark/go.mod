module datatrace/benchmark

go 1.24

require datatrace v0.0.0

replace datatrace => ../
