package main

import (
	"testing"
	"time"
)

func TestDueTimeLatencyAndLateness(t *testing.T) {
	st := sendTiming{due: 100 * time.Millisecond, sent: 130 * time.Millisecond, done: 150 * time.Millisecond}
	if st.latency() != 50*time.Millisecond {
		t.Errorf("latency = %v, want 50ms from the due time", st.latency())
	}
	if st.late() != 30*time.Millisecond {
		t.Errorf("late = %v, want 30ms", st.late())
	}
	early := sendTiming{due: 10, sent: 9, done: 20}
	if early.late() != 0 {
		t.Errorf("late for an early send = %v, want 0", early.late())
	}
}

// A stall delays every later request: with one request in flight at a
// time and each taking three intervals, the sender falls behind and the
// latency of later requests, measured from their due times, grows.
func TestOpenLoopStallCountsAgainstLaterRequests(t *testing.T) {
	const interval = 5 * time.Millisecond
	out := openLoop(6, interval, 1, func(int) error {
		time.Sleep(3 * interval)
		return nil
	})
	for i, st := range out {
		if st.due != time.Duration(i)*interval {
			t.Fatalf("request %d due at %v", i, st.due)
		}
		if st.done < st.sent || st.sent < st.due {
			t.Fatalf("request %d: due %v sent %v done %v", i, st.due, st.sent, st.done)
		}
	}
	if out[5].late() < 8*interval {
		t.Errorf("last request only %v late behind a stalled sender", out[5].late())
	}
	if out[5].latency() < out[5].late()+3*interval {
		t.Errorf("last request latency %v excludes its wait", out[5].latency())
	}
	if out[0].late() > interval {
		t.Errorf("first request %v late", out[0].late())
	}
}
