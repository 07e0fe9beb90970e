package chaos

import (
	"fmt"

	"charmgo/internal/des"
)

// Detector defaults: rounds every 2 ms of virtual time, with a 1.5 ms
// ack deadline, so rounds never overlap and a crash is noticed at most
// one period plus one timeout (~3.5 ms) after it strikes.
const (
	DefaultHeartbeatPeriod  des.Time = 2e-3
	DefaultHeartbeatTimeout des.Time = 1.5e-3
)

// hbBytes is the modeled size of a ping and of its ack.
const hbBytes = 16

// detector is a virtual-time heartbeat failure detector hosted on PE 0
// (plans never crash PE 0). Each round pings every other PE with a
// commit-only sharded event; a global deadline event then reports the
// first PE whose ack did not land before it. The ack itself is not an
// event: a live PE's ping commit computes when its ack would land and
// records whether that is strictly before the deadline (were the ack an
// event, it would be scheduled after the deadline and pop after it on a
// tie).
//
// No wall clock is consulted anywhere: pings and deadlines are virtual-time
// events and the ack's flight is the machine model's latency, so detection
// is deterministic and identical on all three backends. Both are scheduled
// from global events, where no phase is in flight on any backend, so they
// need no horizon clamp. The control messages themselves are modeled as
// zero-cost (they do not occupy PE compute time) — the idealization a
// dedicated monitoring thread would justify.
type detector struct {
	ctrl    *Controller
	period  des.Time
	timeout des.Time
	alpha   des.Time
	// tickFn and pingFn are d.tick and d.ping, bound once so a round
	// allocates only its own record.
	tickFn func()
	pingFn des.CommitFn
}

// round is one heartbeat round: the epoch it was sent in, the instant its
// deadline fires, and per PE whether that PE's ack lands before it. A round
// that straddles a rollback is abandoned: its deadline no-ops on the epoch.
type round struct {
	epoch    uint64
	deadline des.Time
	acked    []bool
}

func newDetector(c *Controller, period, timeout des.Time) *detector {
	if period <= 0 {
		period = DefaultHeartbeatPeriod
	}
	if timeout <= 0 {
		timeout = DefaultHeartbeatTimeout
	}
	d := &detector{ctrl: c, period: period, timeout: timeout,
		alpha: des.Time(c.rt.Machine().Config().Alpha)}
	d.tickFn, d.pingFn = d.tick, d.ping
	return d
}

// pingDelay and ackDelay are the flights of a ping to pe and of its ack
// back to PE 0.
func (d *detector) pingDelay(pe int) des.Time {
	return maxTime(d.ctrl.rt.Machine().NetDelay(0, pe, hbBytes), d.alpha)
}

func (d *detector) ackDelay(pe int) des.Time {
	return maxTime(d.ctrl.rt.Machine().NetDelay(pe, 0, hbBytes), 2*d.alpha)
}

// checkTimeout rejects a timeout a live PE's ack cannot beat: the deadline
// would report that PE, find it alive and stop looking, so a dead PE later
// in the round would never be reported and the run would never end.
func (d *detector) checkTimeout() error {
	var slowest des.Time
	for pe := 1; pe < d.ctrl.rt.NumPEs(); pe++ {
		slowest = maxTime(slowest, d.pingDelay(pe)+d.ackDelay(pe))
	}
	if d.timeout <= slowest {
		return fmt.Errorf("chaos: heartbeat timeout %v s does not exceed the slowest ping+ack round trip %v s", d.timeout, slowest)
	}
	return nil
}

// start arms the first round one period into the run.
func (d *detector) start() {
	d.ctrl.rt.Engine().At(d.period, d.tickFn)
}

// tick runs one heartbeat round and schedules the next. The chain is
// persistent: it keeps observing through recoveries, which is what lets
// a crash landing mid-restore be detected and folded into the in-flight
// recovery instead of going unnoticed until the application resumes.
func (d *detector) tick() {
	rt := d.ctrl.rt
	if rt.Exited() || d.ctrl.err != nil {
		return // chain ends; the engine may drain
	}
	eng := rt.Engine()
	now := rt.Now()
	n := rt.NumPEs()
	r := &round{epoch: rt.Epoch(), deadline: now + d.timeout, acked: make([]bool, n)}
	for pe := 1; pe < n; pe++ {
		eng.AtShardCommit(rt.ShardOf(pe), now+d.pingDelay(pe), d.pingFn, r, int64(pe))
	}
	eng.At(r.deadline, func() { d.expire(r) })
	eng.At(now+d.period, d.tickFn)
}

// ping is a ping's arrival at PE b of round a. A dead PE never acks; that
// silence is the signal.
func (d *detector) ping(a any, b int64, at des.Time) {
	r, pe := a.(*round), int(b)
	if d.ctrl.rt.PEDead(pe) || d.ctrl.err != nil {
		return
	}
	r.acked[pe] = at+d.ackDelay(pe) < r.deadline
}

// expire is a round's deadline: the first PE without an ack is reported.
func (d *detector) expire(r *round) {
	rt := d.ctrl.rt
	if d.ctrl.err != nil || rt.Exited() || rt.Epoch() != r.epoch {
		return
	}
	for pe := 1; pe < len(r.acked); pe++ {
		if !r.acked[pe] {
			d.ctrl.failureDetected(pe, rt.Now())
			return
		}
	}
}

func maxTime(a, b des.Time) des.Time {
	if a > b {
		return a
	}
	return b
}
