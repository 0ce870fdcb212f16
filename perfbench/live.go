package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"

	nrt "ngdc/internal/runtime"
	"ngdc/internal/serve"
)

// The live-mixed workload: ngdc-serve on the live runtime over loopback
// TCP, in this process, driven by liveConns connections that each run
// echo → put → get → lock → unlock rounds with read-back checks. Passes
// are closed-loop batches (capacity); a traced run then adds an open
// loop at openRate, for openShare of the run's time, from which latency
// is measured.
const (
	liveConns  = 2
	liveRounds = 2000 // rounds per connection per pass
	liveKeys   = 64   // keys per connection
	liveLocks  = 8    // lock IDs the connections share
	openRate   = 40000.0
	openShare  = 0.4
	// lateLimit is how far behind schedule the open-loop generator may
	// release its median request. Past it the generator, not the server,
	// has fallen behind, and the open loop is marked invalid. Single late
	// releases (a descheduled virtual CPU) are charged as latency.
	lateLimit = 100 * time.Microsecond
)

// liveRound is one round's inputs, generated from the seed.
type liveRound struct {
	payload []byte
	key     string
	val     []byte
	lock    int
	excl    bool
}

type liveWorkload struct {
	rounds [][]liveRound // per connection
	rt     *nrt.RealRuntime
	cls    []*serve.Client
	passN  int64 // ops per pass
}

func newLive(seed int64) *liveWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &liveWorkload{rounds: make([][]liveRound, liveConns), passN: liveConns * liveRounds * int64(len(serveOps))}
	for c := range w.rounds {
		for r := 0; r < liveRounds; r++ {
			key := fmt.Sprintf("c%d-k%d", c, rng.Intn(liveKeys))
			payload := make([]byte, 16+rng.Intn(112))
			rng.Read(payload)
			val := fmt.Appendf(nil, "%s#%d:", key, r)
			tail := make([]byte, 16+rng.Intn(serve.MaxValue-48)) // the prefix is at most 16 bytes
			rng.Read(tail)
			w.rounds[c] = append(w.rounds[c], liveRound{
				payload: payload, key: key, val: append(val, tail...),
				lock: rng.Intn(liveLocks), excl: rng.Intn(3) == 0,
			})
		}
	}
	return w
}

// start brings up a runtime, a server listening on loopback and the
// client connections.
func (w *liveWorkload) start() error {
	rt := nrt.NewReal()
	srv := serve.New(rt, serve.Options{})
	l, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	srv.Serve(l)
	w.rt = rt
	w.cls = w.cls[:0]
	for c := 0; c < liveConns; c++ {
		cl, err := serve.Dial(rt, l.Addr())
		if err != nil {
			w.stop()
			return fmt.Errorf("dial: %w", err)
		}
		w.cls = append(w.cls, cl)
	}
	return nil
}

// stop closes the connections (their server handlers exit on EOF) and
// shuts the runtime down, closing the listener.
func (w *liveWorkload) stop() {
	for _, cl := range w.cls {
		cl.Close()
	}
	w.cls = nil
	w.rt.Shutdown()
}

// each runs fn once per connection, concurrently, and waits for all.
func (w *liveWorkload) each(fn func(t nrt.Task, c int) error) error {
	errs := make([]error, liveConns)
	for c := 0; c < liveConns; c++ {
		c := c
		w.rt.Go(fmt.Sprintf("client-%d", c), func(t nrt.Task) { errs[c] = fn(t, c) })
	}
	if err := w.rt.Run(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setup is a full bring-up — server, listener, connections and a first
// echo on each — and teardown.
func (w *liveWorkload) setup() (time.Duration, error) {
	t0 := time.Now()
	if err := w.start(); err != nil {
		return 0, err
	}
	err := w.each(func(t nrt.Task, c int) error {
		bad, err := w.op(t, c, 0, 0)
		if err == nil && bad {
			err = fmt.Errorf("first echo on connection %d came back wrong", c)
		}
		return err
	})
	d := time.Since(t0)
	w.stop()
	return d, err
}

func (w *liveWorkload) prepare(*bench) error { return w.start() }

// op issues operation k (an index into serveOps) of round r on
// connection c and reports whether its read-back was wrong.
func (w *liveWorkload) op(t nrt.Task, c, r, k int) (bad bool, err error) {
	cl, rd := w.cls[c], &w.rounds[c][r]
	switch k {
	case 0:
		got, err := cl.Echo(t, rd.payload)
		return err == nil && !bytes.Equal(got, rd.payload), err
	case 1:
		return false, cl.Put(t, rd.key, rd.val)
	case 2:
		got, ok, err := cl.Get(t, rd.key)
		return err == nil && (!ok || !bytes.Equal(got, rd.val)), err
	case 3:
		return false, cl.Lock(t, rd.lock, rd.excl)
	default:
		return false, cl.Unlock(t, rd.lock, rd.excl)
	}
}

// pass is one closed-loop batch: every connection runs all its rounds
// back to back.
func (w *liveWorkload) pass(log *spanLog, parent int) (ops, failed int64, err error) {
	var mu sync.Mutex
	var busy [5]time.Duration
	err = w.each(func(t nrt.Task, c int) error {
		var my [5]time.Duration
		var bad int64
		for r := range w.rounds[c] {
			for k := range serveOps {
				t0 := time.Now()
				wrong, err := w.op(t, c, r, k)
				if err != nil {
					return fmt.Errorf("connection %d round %d %s: %w", c, r, serveOps[k], err)
				}
				if wrong {
					bad++
				}
				if log != nil {
					my[k] += time.Since(t0)
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		failed += bad
		for k := range busy {
			busy[k] += my[k]
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if log != nil {
		now := time.Now()
		for k, op := range serveOps {
			log.add(parent, "op."+op, now, now, map[string]any{
				"count": liveConns * liveRounds, "busy_us": us(busy[k]),
			})
		}
	}
	return w.passN, failed, nil
}

// finish runs the open loop on traced runs, then tears the server down.
func (w *liveWorkload) finish(b *bench) error {
	defer w.stop()
	if !b.traced {
		return nil
	}
	b.set("live.req_per_s", float64(w.passN)/b.wall())
	return w.openLoop(b, time.Duration(openShare*float64(b.budget)))
}

// openLoop sends requests on a fixed schedule at openRate: connection
// c's i-th request is due at t0 + (i·liveConns + c)/openRate whether or
// not its previous reply has come back. Each is timed from when it was
// due, so a stall is charged to every request queued behind it. The
// generator's own lateness is how far past the due time a connection
// that was idle woke up to send.
func (w *liveWorkload) openLoop(b *bench, d time.Duration) error {
	perConn := max(int(openRate*d.Seconds())/liveConns, 1000)
	interval := time.Duration(float64(time.Second) / openRate)
	lat := make([][][]float64, liveConns) // connection → op → µs
	late := make([][]float64, liveConns)
	bad := make([]int64, liveConns)
	start := time.Now()
	t0 := start.Add(time.Millisecond)
	err := w.each(func(t nrt.Task, c int) error {
		lat[c] = make([][]float64, len(serveOps))
		for i := 0; i < perConn; i++ {
			due := time.Duration(i*liveConns+c) * interval
			if time.Since(t0) < due {
				sleepUntil(t0.Add(due))
				late[c] = append(late[c], us(time.Since(t0)-due))
			}
			r, k := (i/len(serveOps))%liveRounds, i%len(serveOps)
			wrong, err := w.op(t, c, r, k)
			if err != nil {
				return fmt.Errorf("open loop: connection %d %s: %w", c, serveOps[k], err)
			}
			if wrong {
				bad[c]++
			}
			lat[c][k] = append(lat[c][k], us(time.Since(t0)-due))
		}
		return nil
	})
	if err != nil {
		return err
	}
	end := time.Now()
	var failed int64
	var lates []float64
	for c := range bad {
		failed += bad[c]
		lates = append(lates, late[c]...)
	}
	b.count(int64(perConn*liveConns), failed)

	sort.Float64s(lates)
	behind := 0
	for _, l := range lates {
		if l > us(lateLimit) {
			behind++
		}
	}
	latePct := 100 * float64(behind) / float64(max(len(lates), 1))
	lateP50, _ := percentile(lates, 50)
	lateP99, _ := percentile(lates, 99)
	b.set("gen.late_pct", latePct)
	b.set("gen.late_p99_us", lateP99)
	b.log.add(0, "open-loop", start, end, map[string]any{
		"rate": openRate, "requests": perConn * liveConns, "woke": len(lates),
		"late_pct": latePct, "late_p50_us": lateP50, "late_p99_us": lateP99,
	})
	if lateP50 > us(lateLimit) {
		// The generator fell behind its schedule: the latencies would
		// measure the generator, so none are reported.
		return nil
	}
	b.set("gen.valid", 1)
	var all []float64
	for k, op := range serveOps {
		var xs []float64
		for c := range lat {
			xs = append(xs, lat[c][k]...)
		}
		all = append(all, xs...)
		sort.Float64s(xs)
		p50, _ := percentile(xs, 50)
		b.set("serve."+op+"_p50_us", p50)
		if p99, ok := percentile(xs, 99); ok {
			b.set("serve."+op+"_p99_us", p99)
		}
	}
	sort.Float64s(all)
	p50, _ := percentile(all, 50)
	b.set("live.p50_us", p50)
	if p99, ok := percentile(all, 99); ok {
		b.set("live.p99_us", p99)
	}
	b.set("live.samples", float64(len(all)))
	return nil
}

// sleepUntil blocks the calling goroutine's thread in the kernel until
// t. Go's timers round waits shorter than a millisecond up to the
// netpoller's millisecond tick, far coarser than the 50µs between one
// connection's requests; nanosleep with the thread's timer slack cut to
// 1ns wakes within microseconds.
func sleepUntil(t time.Time) {
	const prSetTimerslack = 29
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		// Both calls are best effort: the default slack only coarsens the
		// wake-up, and an interrupted sleep loops to re-read the clock.
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}
