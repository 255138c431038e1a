package main

import (
	"sync"
	"time"
)

// sendTiming is one open-loop request's schedule and outcome, as offsets
// from the start of the window.
type sendTiming struct {
	due, sent, done time.Duration
	err             error
}

// latency is measured from when the request was due, not when it was sent:
// a stall that delays later sends counts against every request it delays.
func (t sendTiming) latency() time.Duration { return t.done - t.due }

// late is how far behind its schedule the sender ran for this request.
func (t sendTiming) late() time.Duration { return max(t.sent-t.due, 0) }

// openLoop sends n requests, request i due at i*interval after the start,
// each on its own goroutine, with at most maxInFlight outstanding; when
// that many are outstanding the sender waits and runs late. It returns once
// every request has completed.
func openLoop(n int, interval time.Duration, maxInFlight int, do func(i int) error) []sendTiming {
	out := make([]sendTiming, n)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		out[i].due, out[i].sent = due, time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i].err = do(i)
			out[i].done = time.Since(start)
		}(i)
	}
	wg.Wait()
	return out
}
