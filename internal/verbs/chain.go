package verbs

// Event-chain datapath: every one-sided verbs operation, blocking or
// posted, is one workReq record whose stages run as scheduler callbacks
// (Env.After timers and Tx-resource grant callbacks) instead of a process
// stepping through Sleeps. A posted work request starts the chain from
// its doorbell event and completes into a CQ without touching a
// goroutine; a blocking Read/Write/CompareSwap/FetchAdd starts the same
// chain at the call instant and parks its caller once, until the final
// stage wakes it.
//
// Byte-identity discipline: each stage schedules its successor at the
// same virtual instant the segmented code scheduled its next wake, so
// event sequence numbers — and therefore same-instant FIFO ordering and
// every downstream interleaving — are preserved exactly. In particular
// RDMA read samples target memory in the Tx grant callback (the instant
// the response is serialized at the target), and the chain releases the
// Tx engine at end-of-serialization, never later. A contended grant is
// dispatched by one event at the grant instant, the seq a process
// queued in a blocking AcquireTx would have taken.
//
// All chain state lives in pooled records (workReq per op, postBatch
// per doorbell-batched list) whose step closures are bound once when the
// record is first allocated, so the steady-state datapath performs no
// allocation.

import (
	"encoding/binary"
	"time"

	"ngdc/internal/fabric"
	"ngdc/internal/sim"
	"ngdc/internal/trace"
)

type wrOp uint8

const (
	wrRead wrOp = iota
	wrWrite
	wrCAS
	wrFAA
)

// parkWhy holds the preformatted park reason of a blocking call per op:
// parking must not allocate.
var parkWhy = [...]string{wrRead: "verbs read", wrWrite: "verbs write", wrCAS: "verbs atomic", wrFAA: "verbs atomic"}

// fifo is a tiny recycled FIFO used for pooled message deliveries; the
// backing slice is reused once drained.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}

func applyAtomic(op wrOp, old, cmp, swp, delta uint64) uint64 {
	if op == wrCAS {
		if old == cmp {
			return swp
		}
		return old
	}
	return old + delta
}

// workReq is one one-sided operation in flight. A posted WR completes
// into a CQ (directly, or through its batch's reorder buffer); a
// blocking call sets p instead, and the chain wakes p at the completion
// instant.
type workReq struct {
	d      *Device
	p      *sim.Proc // parked issuer of a blocking call; nil when posted
	cq     *CQ
	b      *postBatch // nil for single posts
	slot   int
	id     uint64
	op     wrOp
	opName string
	r      RemoteAddr
	dst    []byte
	src    []byte
	mr     *MR
	nic    *fabric.NIC
	off    int
	ser    time.Duration
	// half1 is the latency to the mid-chain instant (reads and atomics);
	// half2 the tail after it: the response propagation of a read, the
	// placement latency of a write, the return half of an atomic.
	half1 time.Duration
	half2 time.Duration
	cmp   uint64
	swp   uint64
	delta uint64
	old   uint64
	err   error
	start sim.Time

	startFn  func()
	midFn    func()
	txDoneFn func()
	finishFn func()
	grantFn  func(waited time.Duration)
}

// getWorkReq returns a pooled record describing one op, its step
// closures bound once at first allocation.
func (d *Device) getWorkReq(cq *CQ, id uint64, opName string, op wrOp, r RemoteAddr, off int, dst, src []byte, cmp, swp, delta uint64) *workReq {
	var w *workReq
	if ln := len(d.wrFree); ln > 0 {
		w = d.wrFree[ln-1]
		d.wrFree = d.wrFree[:ln-1]
	} else {
		w = &workReq{d: d}
		w.startFn = w.startStep
		w.midFn = w.midStep
		w.txDoneFn = w.txDoneStep
		w.finishFn = w.finishStep
		w.grantFn = w.grantStep
	}
	w.cq, w.id, w.op, w.opName = cq, id, op, opName
	w.r, w.off, w.dst, w.src = r, off, dst, src
	w.cmp, w.swp, w.delta = cmp, swp, delta
	return w
}

func (d *Device) putWorkReq(w *workReq) {
	w.p, w.cq, w.b, w.dst, w.src, w.mr, w.nic, w.err = nil, nil, nil, nil, nil, nil, nil, nil
	w.old = 0
	d.wrFree = append(d.wrFree, w)
}

// run executes one blocking op: the chain a posted WR runs, prepared and
// launched inline at the call instant, with p parked once until the
// completion instant.
func (d *Device) run(p *sim.Proc, opName string, op wrOp, r RemoteAddr, off int, dst, src []byte, cmp, swp, delta uint64) (uint64, error) {
	w := d.getWorkReq(nil, 0, opName, op, r, off, dst, src, cmp, swp, delta)
	w.p = p
	err := w.prepare()
	if err == nil {
		w.launch()
		p.Park(parkWhy[op])
		w.complete()
		err = w.err
	}
	old := w.old
	d.putWorkReq(w)
	if err != nil {
		return 0, err
	}
	return old, nil
}

// startStep is a posted WR's doorbell: it prepares and launches the
// chain.
func (w *workReq) startStep() {
	if err := w.prepare(); err != nil {
		w.fail(err)
		return
	}
	w.launch()
}

// prepare validates the op and fixes its timeline at the issue instant:
// target lookup, bounds, path faults, the op counter, serialization
// time, the latency halves with connection cost, then link delay.
func (w *workReq) prepare() error {
	d := w.d
	pp := &d.nw.Fab.P
	mr, oe := d.nw.lookup(w.opName, w.r)
	if oe != nil {
		return oe
	}
	n := len(w.dst)
	if w.op == wrWrite {
		n = len(w.src)
	}
	switch w.op {
	case wrRead, wrWrite:
		if w.off < 0 || w.off+n > len(mr.buf) {
			return &OpError{Op: w.opName, Target: w.r, Err: ErrOutOfBounds}
		}
	default:
		if w.off < 0 || w.off+8 > len(mr.buf) || w.off%8 != 0 {
			return &OpError{Op: w.opName, Target: w.r, Err: ErrBadAtomicOffset}
		}
	}
	if err := d.pathError(w.opName, w.r); err != nil {
		return err
	}
	w.mr = mr
	w.start = d.nw.Env.Now()
	switch w.op {
	case wrRead:
		d.Reads++
		w.nic = mr.dev.nic
		w.ser = pp.IBTxTime(n)
		w.half1, w.half2 = pp.IBReadLatency/2, pp.IBReadLatency/2
		w.half1 += d.connCost(w.r.Node)
	case wrWrite:
		d.Writes++
		w.nic = d.nic
		w.ser = pp.IBTxTime(n)
		w.half2 = pp.IBWriteLatency + d.connCost(w.r.Node)
	default:
		d.Atomics++
		lat := pp.IBAtomicLatency
		w.half1, w.half2 = lat/2, lat-lat/2
		w.half1 += d.connCost(w.r.Node)
	}
	w.addLinkDelay()
	return nil
}

// launch starts a prepared chain: a write contends for the issuer's Tx
// engine now; a read or atomic first crosses to the target.
func (w *workReq) launch() {
	if w.op == wrWrite {
		w.nic.Tx().AcquireAsync(1, w.grantFn)
		return
	}
	w.d.nw.Env.After(w.half1, w.midFn)
}

// addLinkDelay folds any injected per-link delay into the chain's two
// propagation halves (no-op on healthy runs and healthy links).
func (w *workReq) addLinkDelay() {
	f := w.d.nw.flt
	if f == nil {
		return
	}
	if xtra := f.LinkDelay(w.d.Node.ID, w.r.Node); xtra > 0 {
		if w.op != wrWrite {
			w.half1 += xtra
		}
		w.half2 += xtra
		f.NoteDelay()
	}
}

// finishAfter schedules the completion instant dt from now: the parked
// issuer's wake for a blocking call, finishStep for a posted WR.
func (w *workReq) finishAfter(dt time.Duration) {
	if w.p != nil {
		w.d.nw.Env.WakeAfter(w.p, dt)
		return
	}
	w.d.nw.Env.After(dt, w.finishFn)
}

// targetLost checks the issuer→target path at the target-side instant.
// A target crashed or partitioned away while the request was in flight
// fails the op at its nominal completion instant instead of hanging.
func (w *workReq) targetLost() bool {
	f := w.d.nw.flt
	if f == nil || f.Reachable(w.d.Node.ID, w.r.Node) {
		return false
	}
	w.err = &OpError{Op: w.opName, Target: w.r, Err: ErrUnreachable}
	w.finishAfter(w.half2)
	return true
}

// midStep runs at the mid-chain instant: for a read, the request has
// reached the target and the response contends for the target's Tx
// engine; for an atomic, the target HCA loads, applies and stores the
// word (no virtual time passes in between).
func (w *workReq) midStep() {
	if w.targetLost() {
		return
	}
	if w.op == wrRead {
		w.nic.Tx().AcquireAsync(1, w.grantFn)
		return
	}
	buf := w.mr.buf[w.off:]
	w.old = binary.LittleEndian.Uint64(buf)
	binary.LittleEndian.PutUint64(buf, applyAtomic(w.op, w.old, w.cmp, w.swp, w.delta))
	w.finishAfter(w.half2)
}

// grantStep runs the instant the Tx engine is granted: sample target
// memory (the read's documented sampling point) and serialize.
func (w *workReq) grantStep(waited time.Duration) {
	w.nic.GrantTx(w.ser, waited)
	if w.op == wrRead {
		copy(w.dst, w.mr.buf[w.off:w.off+len(w.dst)])
	}
	w.d.nw.Env.After(w.ser, w.txDoneFn)
}

// txDoneStep runs when the last byte is serialized: free the Tx engine,
// then schedule completion after the tail latency.
func (w *workReq) txDoneStep() {
	w.nic.Tx().Release(1)
	w.finishAfter(w.half2)
}

func (w *workReq) fail(err error) {
	w.err = err
	w.finishStep()
}

// complete runs at the completion instant. A write places its data
// there, or fails if its path broke while it was in flight; a successful
// op records its trace stats. The trace layer is callback-safe, so
// posted WRs call it from scheduler context and blocking calls after
// their issuer wakes.
func (w *workReq) complete() {
	if w.err != nil {
		return
	}
	d := w.d
	pp := &d.nw.Fab.P
	if w.op == wrWrite {
		if w.err = d.pathError(w.opName, w.r); w.err != nil {
			return
		}
		copy(w.mr.buf[w.off:w.off+len(w.src)], w.src)
	}
	if d.ts == nil {
		return
	}
	switch w.op {
	case wrRead:
		lat := time.Duration(d.nw.Env.Now() - w.start)
		d.ts.Read.Record(len(w.dst), lat)
		d.tr.RecordOp(trace.OpRDMARead, pp.IBReadLatency+w.ser, 0)
		d.tr.Emit("verbs", "read", d.Node.ID, len(w.dst), lat)
	case wrWrite:
		lat := time.Duration(d.nw.Env.Now() - w.start)
		d.ts.Write.Record(len(w.src), lat)
		d.tr.RecordOp(trace.OpRDMAWrite, pp.IBWriteLatency+w.ser, 0)
		d.tr.Emit("verbs", "write", d.Node.ID, len(w.src), lat)
	default:
		lat := pp.IBAtomicLatency
		d.ts.Atomic.Record(8, lat)
		d.tr.RecordOp(trace.OpRDMAAtomic, lat, 0)
		d.tr.Emit("verbs", w.opName, d.Node.ID, 8, lat)
	}
}

// finishStep completes a posted WR into its CQ (or its batch's reorder
// buffer) and recycles the record.
func (w *workReq) finishStep() {
	w.complete()
	c := Completion{ID: w.id, Op: w.opName, Old: w.old, Err: w.err}
	cq, b, slot := w.cq, w.b, w.slot
	w.d.putWorkReq(w)
	if b != nil {
		b.complete(slot, c)
		return
	}
	cq.ch.PostSend(c)
}

// postBatch is the reorder buffer of one PostList call: work requests
// run concurrently, completions are published to the CQ in posting
// order.
type postBatch struct {
	d          *Device
	cq         *CQ
	wrs        []*workReq
	comps      []Completion
	done       []bool
	next       int
	doorbellFn func()
}

func (d *Device) getBatch(cq *CQ, n int) *postBatch {
	var b *postBatch
	if ln := len(d.batchFree); ln > 0 {
		b = d.batchFree[ln-1]
		d.batchFree = d.batchFree[:ln-1]
	} else {
		b = &postBatch{d: d}
		b.doorbellFn = b.doorbell
	}
	b.cq = cq
	b.next = 0
	b.wrs = b.wrs[:0]
	b.comps = b.comps[:0]
	b.done = b.done[:0]
	for i := 0; i < n; i++ {
		b.comps = append(b.comps, Completion{})
		b.done = append(b.done, false)
	}
	return b
}

func (d *Device) putBatch(b *postBatch) {
	b.cq = nil
	for i := range b.wrs {
		b.wrs[i] = nil
	}
	d.batchFree = append(d.batchFree, b)
}

// doorbell rings once for the whole batch: every work request starts at
// the same instant with a single scheduled event. Slots pre-marked done
// (malformed WRs) are flushed here so a batch with no runnable requests
// still completes.
func (b *postBatch) doorbell() {
	for _, w := range b.wrs {
		w.startFn()
	}
	b.flush()
}

func (b *postBatch) complete(slot int, c Completion) {
	b.comps[slot] = c
	b.done[slot] = true
	b.flush()
}

// flush publishes the done prefix in posting order and recycles the
// batch once every slot has been delivered. The cq guard makes flush a
// no-op on a just-recycled batch (a chain that fails validation inside
// doorbell can complete — and recycle — before doorbell's own flush).
func (b *postBatch) flush() {
	if b.cq == nil {
		return
	}
	for b.next < len(b.comps) && b.done[b.next] {
		b.cq.ch.PostSend(b.comps[b.next])
		b.next++
	}
	if b.next == len(b.comps) {
		b.d.putBatch(b)
	}
}

// sendDelivery / qpDelivery are pooled pending deliveries for the
// two-sided paths: every in-flight send costs one FIFO slot instead of
// one captured closure. All deliveries on a device use the same constant
// base latency, so pop order equals scheduling order (faulted links take
// a captured-closure path instead, since per-link delay breaks the
// constant-latency argument). The endpoints are recorded so a crash or
// partition that happens while the message is in flight drops it at the
// delivery instant.
type sendDelivery struct {
	q        *sim.Chan[Message]
	msg      Message
	from, to int
}

type qpDelivery struct {
	rq       *sim.Chan[[]byte]
	buf      []byte
	from, to int
}

// lostInFlight reports whether a message from→to that was healthy at
// send time must be dropped at the delivery instant (endpoint crashed or
// link partitioned meanwhile). Loss rolls happen at send time, not here,
// so in-flight messages see exactly one PRNG draw each.
func (d *Device) lostInFlight(from, to int) bool {
	f := d.nw.flt
	if f == nil || f.Reachable(from, to) {
		return false
	}
	f.NoteDrop()
	return true
}

func (d *Device) deliverSend() {
	dl := d.sendDelq.pop()
	if d.lostInFlight(dl.from, dl.to) {
		dl.msg.Release()
		return
	}
	dl.q.PostSend(dl.msg)
}

func (d *Device) deliverTCP() {
	dl := d.tcpDelq.pop()
	if d.lostInFlight(dl.from, dl.to) {
		dl.msg.Release()
		return
	}
	dl.q.PostSend(dl.msg)
}

func (d *Device) deliverQP() {
	dl := d.qpDelq.pop()
	if dl.rq.Closed() {
		d.nw.flt.NoteDrop() // only a fault flush closes a QP receive queue
		d.pool.putBuf(dl.buf)
		return
	}
	if d.lostInFlight(dl.from, dl.to) {
		d.pool.putBuf(dl.buf)
		return
	}
	dl.rq.PostSend(dl.buf)
}
