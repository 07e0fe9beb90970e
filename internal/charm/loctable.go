package charm

// locEnt is one location hint: the last known PE of an element and its dense
// element id, so a hit stamps the message for map-free routing at every later
// hop.
type locEnt struct {
	pe  int32
	eid int32
}

// denseLocCap bounds the flat per-array hint tables: beyond this many slots
// the memory trade (8 bytes per possible index per PE) stops paying for the
// map lookups it removes, and hints fall back to the map.
const denseLocCap = 1 << 16

// locTable holds one PE's remote-location hints. It owns the choice of
// storage form: in-bounds indices of an array with declared Bounds of at most
// denseLocCap slots live in a flat table per array (an entry with pe < 0 is
// empty), everything else in a hash map. A key is only ever stored in one
// form, so an in-bounds miss in a flat table is authoritative. Both forms are
// allocated lazily on the first hint. Shard-local, like the rest of peState.
type locTable struct {
	locCache map[elemKey]locEnt
	locDense [][]locEnt // by array id
}

// get returns the hint for k, an index of a. Pure reads of shard-local
// state: safe from phase context. The key travels by pointer because this
// is the read on every send: by value, the 40-byte copy showed on the map
// form (EXPERIMENTS.md, issue 18).
func (t *locTable) get(a *Array, k *elemKey) (locEnt, bool) {
	if a.id < len(t.locDense) {
		if d := t.locDense[a.id]; d != nil {
			if off := a.lin(k.idx); off >= 0 {
				return d[off], d[off].pe >= 0
			}
		}
	}
	ent, ok := t.locCache[*k]
	return ent, ok
}

// put stores a hint and returns the entry it replaced, if there was one.
func (t *locTable) put(a *Array, k elemKey, ent locEnt) (prev locEnt, had bool) {
	if a.linCap > 0 && a.linCap <= denseLocCap {
		if off := a.lin(k.idx); off >= 0 {
			for len(t.locDense) <= a.id {
				t.locDense = append(t.locDense, nil)
			}
			d := t.locDense[a.id]
			if d == nil {
				d = make([]locEnt, a.linCap)
				for i := range d {
					d[i].pe = -1
				}
				t.locDense[a.id] = d
			}
			prev, d[off] = d[off], ent
			return prev, prev.pe >= 0
		}
	}
	if t.locCache == nil {
		t.locCache = map[elemKey]locEnt{}
	}
	prev, had = t.locCache[k]
	t.locCache[k] = ent
	return prev, had
}

// del forgets the hint for k. After put's answer (prev, had), re-putting prev
// when had and del otherwise restores what every get returned before.
func (t *locTable) del(a *Array, k elemKey) {
	if a.id < len(t.locDense) && t.locDense[a.id] != nil {
		if off := a.lin(k.idx); off >= 0 {
			t.locDense[a.id][off] = locEnt{pe: -1}
			return
		}
	}
	delete(t.locCache, k)
}

// clone returns a deep copy. Empty forms copy as nil.
func (t *locTable) clone() locTable {
	var c locTable
	if len(t.locCache) > 0 {
		c.locCache = make(map[elemKey]locEnt, len(t.locCache))
		for k, v := range t.locCache { //charmvet:ordered (map copy, order-insensitive)
			c.locCache[k] = v
		}
	}
	for aid, d := range t.locDense {
		if d == nil {
			continue
		}
		if c.locDense == nil {
			c.locDense = make([][]locEnt, len(t.locDense))
		}
		c.locDense[aid] = append([]locEnt(nil), d...)
	}
	return c
}

// reset drops every hint and the storage behind them.
func (t *locTable) reset() { *t = locTable{} }
