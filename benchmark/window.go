package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// window makes the closed loop a closed loop: a source starts the items
// of period seq only once the cut size periods before it has reached the
// tap, so at most size cuts are outstanding however fast the sources
// are. Without it the replay sources run ahead until every inbox is
// full, cut latency measures buffer capacity instead of the pipeline,
// and the networked runtime deadlocks (README, "What the window is
// for"). A source waits right after it released a marker, when the
// runtime has flushed everything the source emitted, so nothing is held
// back while it waits.
//
// The count of completed cuts lives in one 64-bit word: on the heap for
// an in-process run, in a file mapping shared by the worker processes
// for a networked one. A nil *window bounds nothing (the open loop).
type window struct {
	size int64
	done *atomic.Int64
}

// windowPoll is how often a waiting source looks at the count.
const windowPoll = 100 * time.Microsecond

func newWindow(size int) *window {
	return &window{size: int64(size), done: new(atomic.Int64)}
}

// createWindowFile makes the zeroed file a networked run's processes map.
func createWindowFile(path string) error {
	return os.WriteFile(path, make([]byte, 8), 0o644)
}

// openWindow maps the file at path; every process that maps it shares
// the count.
func openWindow(path string, size int) (*window, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mem, err := syscall.Mmap(int(f.Fd()), 0, 8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mapping %s: %w", path, err)
	}
	// A mapping is page-aligned, so the word is aligned for atomic access.
	// It stays mapped for the life of the process.
	return &window{size: int64(size), done: (*atomic.Int64)(unsafe.Pointer(&mem[0]))}, nil
}

// await blocks until period seq may start and returns how long it waited.
func (w *window) await(seq int64) time.Duration {
	if w == nil || w.done.Load() >= seq-w.size+1 {
		return 0
	}
	start := time.Now()
	for w.done.Load() < seq-w.size+1 {
		time.Sleep(windowPoll)
	}
	return time.Since(start)
}

// complete records that cut seq reached the tap. Cuts arrive in order.
func (w *window) complete(seq int64) {
	if w != nil {
		w.done.Store(seq + 1)
	}
}
