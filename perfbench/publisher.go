package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/model"
)

// publisher is the benchmark's single publishing goroutine. It runs open
// loop at a fixed rate: publish k is due at start + k/rate whatever the
// broker did with publish k-1, and its latency is timed from that due
// time, so a stall shows up in every publish it delays.
type publisher struct {
	b     *broker.Broker
	rate  float64
	rng   *rand.Rand
	pick  func(*rand.Rand) model.FlowID
	attrs map[string]float64
	deliv deliveryCounter

	// Written by the publishing goroutine; read after stop returns.
	// Per publish, in µs: from the due time to the return (lat) and to
	// the call (lag), and the time inside Publish (svc).
	lat, lag, svc []float32
	accepted      int64
	throttled     int64
	errs          int64
	errLog        []error

	quit atomic.Bool
	done chan struct{}
}

func newPublisher(b *broker.Broker, rate float64, seed int64, pick func(*rand.Rand) model.FlowID, deliv deliveryCounter) *publisher {
	return &publisher{
		b:     b,
		rate:  rate,
		rng:   rand.New(rand.NewSource(seed)),
		pick:  pick,
		attrs: map[string]float64{"price": 80},
		deliv: deliv,
	}
}

// start launches the publishing goroutine for a run of about seconds.
func (p *publisher) start(seconds float64) error {
	a, err := newAlarm()
	if err != nil {
		return err
	}
	n := int(p.rate*seconds*1.1) + 16
	p.lat = make([]float32, 0, n)
	p.lag = make([]float32, 0, n)
	p.svc = make([]float32, 0, n)
	p.done = make(chan struct{})
	go p.loop(a, time.Now())
	return nil
}

// stop ends the publishing goroutine and waits for it.
func (p *publisher) stop() {
	if p.done == nil {
		return
	}
	p.quit.Store(true)
	<-p.done
}

// windowed returns the median over one-second windows of the samples'
// q-quantile. Publishes are due at a fixed rate, so a window is a run of
// rate consecutive samples; a trailing partial window is dropped. A few
// seconds of host noise move only their own windows.
func (p *publisher) windowed(xs []float32, q float64) float64 {
	per := int(p.rate)
	var ws []float64
	for lo := 0; lo+per <= len(xs); lo += per {
		ws = append(ws, percentile32(xs[lo:lo+per], q))
	}
	if len(ws) == 0 {
		return percentile32(xs, q)
	}
	return median(ws)
}

func (p *publisher) attempted() int64 { return p.accepted + p.throttled + p.errs }

func (p *publisher) loop(a *alarm, start time.Time) {
	defer close(p.done)
	defer a.close()
	period := float64(time.Second) / p.rate
	for k := 1; !p.quit.Load(); k++ {
		due := start.Add(time.Duration(float64(k) * period))
		if err := a.wait(due); err != nil {
			p.errs++
			p.errLog = append(p.errLog, err)
			return
		}
		flow := p.pick(p.rng)
		s := time.Now()
		err := p.b.Publish(flow, p.attrs, "tick")
		e := time.Now()
		switch {
		case err == nil:
			p.accepted++
		case errors.Is(err, broker.ErrThrottled):
			// The token bucket enacting the allocated rate: working as
			// intended, not a failure.
			p.throttled++
		default:
			p.errs++
			if len(p.errLog) < 10 {
				p.errLog = append(p.errLog, fmt.Errorf("flow %d: %w", flow, err))
			}
		}
		p.lat = append(p.lat, float32(e.Sub(due))/float32(time.Microsecond))
		p.lag = append(p.lag, float32(s.Sub(due))/float32(time.Microsecond))
		p.svc = append(p.svc, float32(e.Sub(s))/float32(time.Microsecond))
	}
}
