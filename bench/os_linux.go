//go:build linux

package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread in nanosleep(2). The Go runtime
// parks an idle process in epoll_wait, whose timeout is whole milliseconds, so
// time.Sleep overshoots a sub-millisecond wait by about a millisecond — ten
// times the latencies the open loop measures; the raw call overshoots by the
// kernel's timer slack, tens of microseconds.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
