//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm wakes one goroutine at a due time through a Linux timerfd read by
// the runtime's netpoller. The waiting goroutine holds no processor, and
// it wakes with the kernel timer's microsecond precision; time.Sleep
// wakes up to a millisecond late (runtime timers ride the netpoller's
// millisecond timeout), which would swamp the microsecond publishes being
// timed. When every processor is busy the wake-up waits for one, exactly
// like a publish arriving from the network would.
type alarm struct {
	fd  int
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// itimerspec mirrors the kernel's struct itimerspec on 64-bit Linux.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

func newAlarm() (*alarm, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes the File pollable; never call its
	// Fd method, which would switch it back to blocking reads.
	return &alarm{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until due, returning at once when due has passed.
func (a *alarm) wait(due time.Time) error {
	d := time.Until(due)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(a.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := a.f.Read(a.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (a *alarm) close() { a.f.Close() }
