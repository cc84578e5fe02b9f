package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"datatrace/internal/stream"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule; 0 for no values.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// latencyGroup is the number of consecutive cuts whose latencies form one
// group: the smallest count whose 95th percentile has ten samples beyond
// it.
const latencyGroup = 200

// groupedPercentile splits xs, in their order, into groups of
// latencyGroup consecutive values, takes each group's q-quantile and
// returns the median over the groups: a stall of the box then spoils the
// groups it falls into and not the reported value. Fewer than two whole
// groups are taken as one.
func groupedPercentile(xs []float64, q float64) float64 {
	if len(xs) < 2*latencyGroup {
		return percentile(xs, q)
	}
	var per []float64
	for start := 0; start+latencyGroup <= len(xs); start += latencyGroup {
		end := start + latencyGroup
		if len(xs)-end < latencyGroup {
			end = len(xs) // the last group takes the remainder
		}
		per = append(per, percentile(xs[start:end], q))
	}
	return median(per)
}

// supported reports whether n samples hold the q-quantile up: at least
// ten samples must lie beyond it, or the reported value is one outlier.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// slope is the least-squares slope of ys over xs; 0 when it is not
// defined.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is the spread the acceptance check of the benchmark uses. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summary is a value measured once per trial, reported as its median
// with the quartiles, the extremes and the trial count alongside.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Trials int     `json:"trials"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func summarise(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := summary{Median: median(xs), Min: xs[0], Max: xs[0], Trials: len(xs)}
	s.Q1, s.Q3 = quartiles(xs)
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// usage is the process-level resource reading taken around a trial.
type usage struct {
	cpu     time.Duration // user+system, this process and its reaped children
	mallocs uint64
	bytes   uint64
}

func readUsage() (usage, error) {
	var self, kids syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		return usage{}, fmt.Errorf("getrusage self: %w", err)
	}
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids); err != nil {
		return usage{}, fmt.Errorf("getrusage children: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     tvDur(self.Utime) + tvDur(self.Stime) + tvDur(kids.Utime) + tvDur(kids.Stime),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}, nil
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// residentMiB is this process's resident set size now (Linux: the second
// field of /proc/self/statm, in pages); 0 when it cannot be read.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// rssSampler watches this process's resident set size while a trial
// runs. The kernel's own high-water mark (ru_maxrss) cannot be reset, so
// it would report the largest trial of a run, set-up included; sampling
// gives every trial its own peak, and the run reports their median.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

// rssEvery is the sampling period; a heap grows over many of them.
const rssEvery = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		peak := residentMiB()
		for {
			select {
			case <-s.stop:
				s.peak <- math.Max(peak, residentMiB())
				return
			case <-tick.C:
				peak = math.Max(peak, residentMiB())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak it saw.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	return <-s.peak
}

// digest folds a sink stream into one number that does not depend on
// the order of items between two markers but does depend on which items
// fall in which cut and on the order of the cuts.
func digest(events []stream.Event) uint64 {
	var total, cut uint64
	for _, e := range events {
		if !e.IsMarker {
			h := fnv.New64a()
			fmt.Fprintf(h, "%v|%v", e.Key, e.Value)
			cut += h.Sum64() // commutative within the cut
			continue
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%d|%d", total, cut, e.Marker.Seq, e.Marker.Timestamp)
		total, cut = h.Sum64(), 0
	}
	if cut != 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|open", total, cut)
		total = h.Sum64()
	}
	return total
}
