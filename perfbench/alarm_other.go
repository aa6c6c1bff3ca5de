//go:build !linux

package main

import "time"

// alarm falls back to time.Sleep where no timerfd exists; short waits
// then wake up to a millisecond late, which publish latencies include.
type alarm struct{}

func newAlarm() (*alarm, error) { return &alarm{}, nil }

func (a *alarm) wait(due time.Time) error {
	time.Sleep(time.Until(due))
	return nil
}

func (a *alarm) close() {}
