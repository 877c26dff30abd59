package main

import (
	"math/rand"
	"sync"
	"time"
)

// The benchmark host is a shared virtual machine whose speed drifts by
// 20-40% over a few minutes, far more than any bound the benchmark sets.
// Every end-to-end timing is therefore brought to one reference speed:
// a fixed reference loop is timed before and after each timed unit (a
// pass, a server lifetime, a set of restarts), and the unit's timings
// are scaled by refNominal over the mean of the two.  A change to the
// program moves its timings and leaves the reference loop alone, so it
// shows at full size; a slow spell of the host stretches both and
// cancels.
//
// The loop does the kind of work the simulator does: a ring of
// goroutines hands one token on, and each hop draws a random number and
// updates a map and a slice.  On the tuning host, 30-second medians of
// a uniform or fft run drifted with an interquartile range of 23% of
// their median over four minutes; the same medians of run time over
// reference time drifted 4%.

// refNominal is the reference loop's time, by number of rings, on the
// 2-vCPU Xeon the benchmark was tuned on, at its usual speed.  It only
// fixes the scale: a scaled timing is the time the unit takes when the
// loop takes this.
var refNominal = map[int]time.Duration{1: 70 * time.Millisecond, 2: 105 * time.Millisecond}

const (
	refProcs = 256    // goroutines in the ring
	refHops  = 200000 // token hands-on per loop
)

// refLoop runs the given number of rings side by side and returns
// the time until the last finishes.  One ring measures the speed of
// sequential work; work spread over both cores needs as many rings.
func refLoop(rings int) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < rings; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ring(start)
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

func ring(start <-chan struct{}) {
	chans := make([]chan int, refProcs)
	for i := range chans {
		chans[i] = make(chan int)
	}
	done := make(chan struct{})
	for i := range chans {
		go func() {
			rng := rand.New(rand.NewSource(int64(i)))
			m := map[int]int{}
			var buf []int
			for tok := range chans[i] {
				if tok == refHops {
					close(done)
					continue
				}
				k := rng.Intn(64)
				m[k] += tok
				if buf = append(buf, k); len(buf) > 64 {
					buf = buf[:0]
				}
				chans[(i+1+k%3)%refProcs] <- tok + 1
			}
		}()
	}
	<-start
	chans[0] <- 0
	<-done
	for _, c := range chans {
		close(c)
	}
}

// speedo keeps the reference loop's timings.
type speedo struct {
	last      time.Duration
	lastAt    time.Time
	lastRings int
	// probes holds every one-ring reference timing in ms, for the
	// per-layer report.
	probes []float64
}

// probe times the reference loop.  It collects no garbage: that would
// also empty the program's sync.Pools, which a run would then refill.
func (s *speedo) probe(rings int) time.Duration {
	d := refLoop(rings)
	s.last, s.lastAt, s.lastRings = d, time.Now(), rings
	if rings == 1 {
		s.probes = append(s.probes, ms(d))
	}
	return d
}

// around runs fn between two probes of the given number of rings and
// returns the factor that brings the timings fn took to the reference
// speed.  A probe just taken serves as the first of the two, so
// back-to-back units share their boundary probe.
func (s *speedo) around(rings int, fn func() error) (float64, error) {
	before := s.last
	if s.lastRings != rings || time.Since(s.lastAt) > 50*time.Millisecond {
		before = s.probe(rings)
	}
	err := fn()
	after := s.probe(rings)
	return 2 * float64(refNominal[rings]) / float64(before+after), err
}
