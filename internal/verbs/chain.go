package verbs

// Event-chain datapath: every verbs operation is a small state machine
// whose stages run as scheduler callbacks (Env.After timers and
// Tx-resource grant callbacks) instead of a dedicated goroutine stepping
// through Sleeps. Synchronous callers park exactly once and are woken by
// the final stage; posted work requests never touch a goroutine at all.
//
// Byte-identity discipline: each stage schedules its successor at the
// same virtual instant the segmented code scheduled its next wake, so
// event sequence numbers — and therefore same-instant FIFO ordering and
// every downstream interleaving — are preserved exactly. In particular
// RDMA read samples target memory in the Tx grant callback (the instant
// the response is serialized at the target), and the chain releases the
// Tx engine at end-of-serialization, never later.
//
// All chain state lives in pooled records (syncOp for synchronous calls,
// workReq for posted WRs, postBatch for doorbell-batched lists) whose
// step closures are bound once when the record is first allocated, so
// the steady-state datapath performs no allocation.

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

// Preformatted park reasons: parking must not allocate.
const (
	parkRead   = "verbs read"
	parkWrite  = "verbs write"
	parkAtomic = "verbs atomic"
)

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

// syncOp drives the timeline of one synchronous Read/Write/atomic while
// the issuing process is parked.
type syncOp struct {
	d   *Device
	p   *sim.Proc
	op  wrOp
	mr  *MR
	dst []byte
	nic *fabric.NIC
	off int
	ser time.Duration
	// half2 is the tail latency after the mid-chain instant: the response
	// propagation of a read, the placement latency of a write, or the
	// second half of an atomic round trip.
	half2           time.Duration
	cmp, swp, delta uint64
	old             uint64
	opName          string
	err             error

	midFn    func()
	txDoneFn func()
	grantFn  func(waited time.Duration)
}

func (d *Device) getSyncOp() *syncOp {
	if ln := len(d.syncFree); ln > 0 {
		o := d.syncFree[ln-1]
		d.syncFree = d.syncFree[:ln-1]
		return o
	}
	o := &syncOp{d: d}
	o.midFn = o.midStep
	o.txDoneFn = o.txDoneStep
	o.grantFn = o.grantStep
	return o
}

func (d *Device) putSyncOp(o *syncOp) {
	o.p, o.mr, o.dst, o.nic, o.err = nil, nil, nil, nil, nil
	d.syncFree = append(d.syncFree, o)
}

// midStep runs at the mid-chain instant: for a read, the request has
// reached the target and the response contends for the target's Tx
// engine; for an atomic, the target HCA executes the operation.
func (o *syncOp) midStep() {
	switch o.op {
	case wrRead:
		if o.targetLost("read") {
			return
		}
		o.nic.Tx().AcquireAsync(1, o.grantFn)
	default:
		if o.targetLost(o.opName) {
			return
		}
		buf := o.mr.buf[o.off:]
		o.old = binary.LittleEndian.Uint64(buf)
		binary.LittleEndian.PutUint64(buf, applyAtomic(o.op, o.old, o.cmp, o.swp, o.delta))
		o.d.nw.Env.WakeAfter(o.p, o.half2)
	}
}

// targetLost checks the issuer→target path at the target-side instant.
// If the target crashed or was partitioned away while the request was in
// flight, the op is failed and the issuer woken at the nominal
// completion instant with an error instead of hanging.
func (o *syncOp) targetLost(op string) bool {
	f := o.d.nw.flt
	if f == nil || f.Reachable(o.d.Node.ID, o.mr.dev.Node.ID) {
		return false
	}
	o.err = &OpError{Op: op, Target: o.mr.Addr(), Err: ErrUnreachable}
	o.d.nw.Env.WakeAfter(o.p, o.half2)
	return true
}

// grantStep runs the instant the Tx engine is granted: sample target
// memory (the read's documented sampling point) and serialize.
func (o *syncOp) grantStep(waited time.Duration) {
	o.nic.GrantTx(o.ser, waited)
	if o.op == wrRead {
		copy(o.dst, o.mr.buf[o.off:o.off+len(o.dst)])
	}
	o.d.nw.Env.After(o.ser, o.txDoneFn)
}

// txDoneStep runs when the last byte is serialized: free the Tx engine
// and schedule the issuer's wake after the tail latency.
func (o *syncOp) txDoneStep() {
	o.nic.Tx().Release(1)
	o.d.nw.Env.WakeAfter(o.p, o.half2)
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

// workReq is one posted work request: the asynchronous counterpart of
// syncOp, completing into a CQ (directly, or through its batch's
// reorder buffer) instead of waking a process.
type workReq struct {
	d      *Device
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
	half1  time.Duration
	half2  time.Duration
	cmp    uint64
	swp    uint64
	delta  uint64
	old    uint64
	err    error
	start  sim.Time

	startFn  func()
	midFn    func()
	txDoneFn func()
	finishFn func()
	grantFn  func(waited time.Duration)
}

func (d *Device) getWorkReq() *workReq {
	if ln := len(d.wrFree); ln > 0 {
		w := d.wrFree[ln-1]
		d.wrFree = d.wrFree[:ln-1]
		return w
	}
	w := &workReq{d: d}
	w.startFn = w.startStep
	w.midFn = w.midStep
	w.txDoneFn = w.txDoneStep
	w.finishFn = w.finishStep
	w.grantFn = w.grantStep
	return w
}

func (d *Device) putWorkReq(w *workReq) {
	w.cq, w.b, w.dst, w.src, w.mr, w.nic, w.err = nil, nil, nil, nil, nil, nil, nil
	w.old = 0
	d.wrFree = append(d.wrFree, w)
}

// startStep is the doorbell: validation and the first timeline stage, at
// the instant the old goroutine-per-WR implementation started its
// process.
func (w *workReq) startStep() {
	pp := w.d.nw.Fab.P
	env := w.d.nw.Env
	switch w.op {
	case wrRead:
		mr, err := w.d.nw.lookup("read", w.r)
		if err != nil {
			w.fail(err)
			return
		}
		if w.off < 0 || w.off+len(w.dst) > len(mr.buf) {
			w.fail(&OpError{Op: "read", Target: w.r, Err: ErrOutOfBounds})
			return
		}
		if err := w.d.pathError("read", w.r); err != nil {
			w.fail(err)
			return
		}
		w.mr = mr
		w.nic = w.d.nw.devs[w.r.Node].nic
		w.d.Reads++
		w.start = env.Now()
		w.ser = pp.IBTxTime(len(w.dst))
		w.half1, w.half2 = pp.IBReadLatency/2, pp.IBReadLatency/2
		w.half1 += w.d.connCost(w.r.Node)
		w.addLinkDelay()
		env.After(w.half1, w.midFn)
	case wrWrite:
		mr, err := w.d.nw.lookup("write", w.r)
		if err != nil {
			w.fail(err)
			return
		}
		if w.off < 0 || w.off+len(w.src) > len(mr.buf) {
			w.fail(&OpError{Op: "write", Target: w.r, Err: ErrOutOfBounds})
			return
		}
		if err := w.d.pathError("write", w.r); err != nil {
			w.fail(err)
			return
		}
		w.mr = mr
		w.nic = w.d.nic
		w.d.Writes++
		w.start = env.Now()
		w.ser = pp.IBTxTime(len(w.src))
		w.half2 = pp.IBWriteLatency + w.d.connCost(w.r.Node)
		w.addLinkDelay()
		w.nic.Tx().AcquireAsync(1, w.grantFn)
	case wrCAS, wrFAA:
		mr, err := w.d.nw.lookup(w.opName, w.r)
		if err != nil {
			w.fail(err)
			return
		}
		if w.off < 0 || w.off+8 > len(mr.buf) || w.off%8 != 0 {
			w.fail(&OpError{Op: w.opName, Target: w.r, Err: ErrBadAtomicOffset})
			return
		}
		if err := w.d.pathError(w.opName, w.r); err != nil {
			w.fail(err)
			return
		}
		w.mr = mr
		w.d.Atomics++
		w.start = env.Now()
		lat := pp.IBAtomicLatency
		w.half1, w.half2 = lat/2, lat-lat/2
		w.half1 += w.d.connCost(w.r.Node)
		w.addLinkDelay()
		env.After(w.half1, w.midFn)
	}
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

// targetLost is workReq's counterpart of syncOp.targetLost: a target
// crashed or partitioned away mid-flight completes the WR with an error
// status at the nominal completion instant.
func (w *workReq) targetLost() bool {
	f := w.d.nw.flt
	if f == nil || f.Reachable(w.d.Node.ID, w.r.Node) {
		return false
	}
	w.err = &OpError{Op: w.opName, Target: w.r, Err: ErrUnreachable}
	w.d.nw.Env.After(w.half2, w.finishFn)
	return true
}

func (w *workReq) midStep() {
	switch w.op {
	case wrRead:
		if w.targetLost() {
			return
		}
		w.nic.Tx().AcquireAsync(1, w.grantFn)
	default:
		if w.targetLost() {
			return
		}
		buf := w.mr.buf[w.off:]
		w.old = binary.LittleEndian.Uint64(buf)
		binary.LittleEndian.PutUint64(buf, applyAtomic(w.op, w.old, w.cmp, w.swp, w.delta))
		w.d.nw.Env.After(w.half2, w.finishFn)
	}
}

func (w *workReq) grantStep(waited time.Duration) {
	w.nic.GrantTx(w.ser, waited)
	if w.op == wrRead {
		copy(w.dst, w.mr.buf[w.off:w.off+len(w.dst)])
	}
	w.d.nw.Env.After(w.ser, w.txDoneFn)
}

func (w *workReq) txDoneStep() {
	w.nic.Tx().Release(1)
	w.d.nw.Env.After(w.half2, w.finishFn)
}

func (w *workReq) fail(err error) {
	w.err = err
	w.finishStep()
}

// finishStep runs at the completion instant: final memory effects, trace
// recording (from scheduler context — the trace layer is callback-safe),
// and completion delivery.
func (w *workReq) finishStep() {
	d := w.d
	env := d.nw.Env
	pp := d.nw.Fab.P
	// A write places its data at the completion instant; a target lost
	// after serialization fails the WR here instead of placing into dead
	// memory.
	if w.err == nil && w.op == wrWrite {
		if f := d.nw.flt; f != nil && !f.Reachable(d.Node.ID, w.r.Node) {
			w.err = &OpError{Op: w.opName, Target: w.r, Err: ErrUnreachable}
		}
	}
	if w.err == nil {
		switch w.op {
		case wrRead:
			if d.ts != nil {
				lat := time.Duration(env.Now() - w.start)
				d.ts.Read.Record(len(w.dst), lat)
				d.tr.RecordOp(trace.OpRDMARead, pp.IBReadLatency+w.ser, 0)
				d.tr.Emit("verbs", "read", d.Node.ID, len(w.dst), lat)
			}
		case wrWrite:
			copy(w.mr.buf[w.off:w.off+len(w.src)], w.src)
			if d.ts != nil {
				lat := time.Duration(env.Now() - w.start)
				d.ts.Write.Record(len(w.src), lat)
				d.tr.RecordOp(trace.OpRDMAWrite, pp.IBWriteLatency+w.ser, 0)
				d.tr.Emit("verbs", "write", d.Node.ID, len(w.src), lat)
			}
		case wrCAS, wrFAA:
			if d.ts != nil {
				lat := pp.IBAtomicLatency
				d.ts.Atomic.Record(8, lat)
				d.tr.RecordOp(trace.OpRDMAAtomic, lat, 0)
				d.tr.Emit("verbs", w.opName, d.Node.ID, 8, lat)
			}
		}
	}
	c := Completion{ID: w.id, Op: w.opName, Old: w.old, Err: w.err}
	cq, b, slot := w.cq, w.b, w.slot
	d.putWorkReq(w)
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
