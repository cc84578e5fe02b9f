package compile

// withCombinerCap runs f with every combining buffer the compiler
// installs capped at n distinct keys, so small caps drain mid-block.
func withCombinerCap(n int, f func()) {
	defer func(old int) { combinerCap = old }(combinerCap)
	combinerCap = n
	f()
}
