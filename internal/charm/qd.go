package charm

import "charmgo/internal/des"

// dueCB is one collective completion on its way to its callback: a reduction
// result, or an armed quiescence detection. It fires as a global event that
// does nothing if a rollback happened since it was scheduled — work armed
// under one epoch must not leak into the next. The records are recycled
// through rt.dueSpare and each binds its event body (run) once, so a
// completion allocates nothing beyond a reduction's boxed result, and the
// callback runs on PE 0's recycled context.
type dueCB struct {
	rt     *Runtime
	epoch  uint64
	cb     Callback
	result any
	qd     bool // a quiescence detection: re-verified when it fires
	run    func()
}

// takeDue returns a recycled completion record for cb (driver context).
func (rt *Runtime) takeDue(cb Callback, result any, qd bool) *dueCB {
	var d *dueCB
	if n := len(rt.dueSpare); n > 0 {
		d = rt.dueSpare[n-1]
		rt.dueSpare[n-1] = nil
		rt.dueSpare = rt.dueSpare[:n-1]
	} else {
		d = &dueCB{rt: rt}
		d.run = d.fire
	}
	d.cb, d.result, d.qd = cb, result, qd
	return d
}

// schedule arms d's event at t under the current epoch.
func (d *dueCB) schedule(t des.Time) {
	d.epoch = d.rt.epoch
	d.rt.eng.At(t, d.run)
}

// recycleDue returns d to the spare list, dropping its callback and result.
func (rt *Runtime) recycleDue(d *dueCB) {
	d.cb, d.result = Callback{}, nil
	//charmvet:retain (this IS the pool: the spare records the next completion draws from)
	rt.dueSpare = append(rt.dueSpare, d)
}

// fire is the body of every completion event. The record is recycled before
// the callback runs, so a callback that arms the next collective (a window
// loop's StartQD) reuses it.
func (d *dueCB) fire() {
	rt := d.rt
	if rt.epoch != d.epoch {
		rt.recycleDue(d) // voided by a rollback
		return
	}
	if d.qd {
		// Re-verify: activity may have restarted during the wave (a timer
		// or driver injected new work); if so, re-arm.
		if rt.inflight > 0 {
			rt.qdWatch = append(rt.qdWatch, d)
			return
		}
		rt.Stats.QDRounds++
	}
	cb, result := d.cb, d.result
	rt.recycleDue(d)
	p := rt.pes[0]
	ctx := p.takeCtx(rt, nil, rt.eng.Now())
	cb.fire(ctx, result)
	rt.finishExec(ctx, nil)
	p.releaseCtx(ctx)
}

// StartQD arms quiescence detection (CkStartQD): cb fires once no
// application messages are in flight or queued anywhere. The completion is
// charged the cost of the two-wave counting collective the real RTS runs —
// this is what makes AMR mesh restructuring O(1) collectives instead of
// O(depth) (§IV-A.4).
func (rt *Runtime) StartQD(cb Callback) {
	rt.qdWatch = append(rt.qdWatch, rt.takeDue(cb, nil, true))
	rt.checkQD()
}

// QDLatency returns the modeled cost of the two counting waves.
func (rt *Runtime) QDLatency() des.Time {
	return 2 * rt.barrierLatency()
}

// checkQD fires any armed detections when the system is quiescent.
func (rt *Runtime) checkQD() {
	if len(rt.qdWatch) == 0 || rt.inflight > 0 {
		return
	}
	fireAt := rt.MaxBusy() + rt.QDLatency()
	for i, d := range rt.qdWatch {
		d.schedule(fireAt)
		rt.qdWatch[i] = nil
	}
	rt.qdWatch = rt.qdWatch[:0]
}
