package charm

import "fmt"

// Group is a chare collection with exactly one member per PE — the
// Charm++ "group" (branch office) abstraction. Libraries use groups for
// per-PE services: caches, aggregation buffers, local managers. Members
// never migrate (they ARE the PE's local presence), so access from code
// running on the same PE is direct.
type Group struct {
	rt       *Runtime
	name     string
	handlers []Handler
	elems    []Chare
	peh      PEH
}

type groupMsg struct {
	ep      EP
	payload any
}

type groupBcast struct {
	ep      EP
	payload any
	size    int32
}

// DeclareGroup registers a group: factory builds the member for each PE.
func (rt *Runtime) DeclareGroup(name string, factory func(pe int) Chare, handlers []Handler) *Group {
	if _, dup := rt.arrayNames[name]; dup {
		panic("charm: group name collides with an array: " + name)
	}
	g := &Group{rt: rt, name: name, handlers: handlers}
	g.elems = make([]Chare, rt.MaxPEs())
	for pe := range g.elems {
		g.elems[pe] = factory(pe)
	}
	g.peh = rt.DeclarePEHandler(g.dispatch)
	return g
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Local returns the member on the given PE (simulation-level accessor;
// prefer Ctx.GroupLocal inside entry methods).
func (g *Group) Local(pe int) Chare { return g.elems[pe] }

func (g *Group) dispatch(ctx *Ctx, msg any) {
	switch m := msg.(type) {
	case groupMsg:
		g.handlers[m.ep](g.elems[ctx.pe], ctx, m.payload)
	case groupBcast:
		// Fan out down the PE tree, then run locally.
		p := ctx.pe
		for _, child := range []int{2*p + 1, 2*p + 2} {
			if child < g.rt.activePEs {
				ctx.SendPE(child, g.peh, m, &SendOpts{Bytes: int(m.size), Prio: prioControl})
			}
		}
		g.handlers[m.ep](g.elems[p], ctx, m.payload)
	default:
		panic(fmt.Sprintf("charm: bad group message %T", msg))
	}
}

// SendGroup invokes an entry method on the group member of the given PE.
func (c *Ctx) SendGroup(g *Group, pe int, ep EP, payload any, opts *SendOpts) {
	refuseVec(payload) // SendPE sizes the wrapper, not the payload
	c.SendPE(pe, g.peh, groupMsg{ep: ep, payload: payload}, opts)
}

// GroupLocal returns this PE's member for direct access (no message).
func (c *Ctx) GroupLocal(g *Group) Chare { return g.elems[c.pe] }

// BroadcastGroup invokes ep on every active PE's member via the PE tree.
func (c *Ctx) BroadcastGroup(g *Group, ep EP, payload any, opts *SendOpts) {
	size := c.msgSize(payload, opts)
	m := groupBcast{ep: ep, payload: payload, size: size}
	if c.pe == 0 {
		g.dispatch(c, m)
		return
	}
	c.SendPE(0, g.peh, m, &SendOpts{Bytes: int(size), Prio: prioControl})
}

// BroadcastGroup invokes ep on every member from driver context.
func (g *Group) BroadcastGroup(ep EP, payload any) {
	rt := g.rt
	rt.eng.At(rt.eng.Now(), func() {
		ctx := rt.newCtx(0, nil)
		ctx.BroadcastGroup(g, ep, payload, nil)
		rt.finishExec(ctx, nil)
	})
}
