package charm

import "sort"

// multicastMsg carries one payload to several co-located elements.
type multicastMsg struct {
	arr     int
	ep      EP
	idxs    []Index
	payload any
	size    int
	prio    int64
}

// Multicast delivers payload to entry method ep of each listed element —
// a section multicast (CkMulticast): instead of one network message per
// element, the runtime sends one message per destination PE and fans out
// locally, so a cell updating its ~14 computes pays 3–4 sends rather
// than 14. Elements that moved since the sender's location knowledge are
// re-routed individually through the location manager.
func (c *Ctx) Multicast(arr *Array, idxs []Index, ep EP, payload any, opts *SendOpts) {
	if len(idxs) == 0 {
		return
	}
	size := c.msgSize(payload, opts)
	var prio int64
	if opts != nil {
		prio = opts.Prio
	}
	// Group targets by the sender's best knowledge of their location.
	byPE := map[int][]Index{}
	for _, idx := range idxs {
		// Through resolveFor, not resolveEID: coast-forward replay must regroup
		// the section exactly as the original execution did even after the
		// location caches learned newer hints (see speculation.go).
		pe := c.resolveFor(elemKey{array: arr.id, idx: idx})
		byPE[pe] = append(byPE[pe], idx)
	}
	pes := make([]int, 0, len(byPE))
	for pe := range byPE {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		group := byPE[pe]
		if c.elem != nil {
			c.elem.msgsSent++
			c.elem.bytesSent += uint64(size)
		}
		c.SendPE(pe, c.rt.mcastPEH, multicastMsg{
			arr: arr.id, ep: ep, idxs: group, payload: payload,
			size: size, prio: prio,
		}, &SendOpts{Bytes: size + 16*len(group), Prio: prio})
		// Each element in the section is one logical application message.
		n := len(group)
		c.emit(func() { c.rt.inflight += n })
	}
}

// mcastHandler lands a multicast bundle on a PE: local elements get
// scheduler messages; elements that moved away are re-sent individually.
func (rt *Runtime) mcastHandler(ctx *Ctx, msg any) {
	m := msg.(multicastMsg)
	p := rt.pes[ctx.pe]
	for _, idx := range m.idxs {
		key := elemKey{array: m.arr, idx: idx}
		if el := p.find(&key); el != nil {
			rt.enqueue(localMsg(el, m.ep, m.payload, m.prio, m.size), ctx.pe)
			continue
		}
		// Stale location: hand the single copy to the location manager.
		em := getMsg()
		em.dest = key
		em.destPE = -1
		em.ep = m.ep
		em.payload = m.payload
		em.prio = m.prio
		em.size = m.size
		em.srcPE = ctx.pe
		rt.transmit(em, ctx.pe, rt.homePE(key), ctx.Now())
	}
}
