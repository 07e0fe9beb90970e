package charm

import "slices"

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

// locDump is a locTable saved for a later load: the map form as a flat list
// of its entries (a checkpoint never looks a hint up, and a list refills in
// place where a map would regrow), the flat form as copies.
type locDump struct {
	pairs []locPair
	dense [][]locEnt // by array id
}

type locPair struct {
	k elemKey
	e locEnt
}

// save overwrites d with t's hints, reusing d's storage.
func (d *locDump) save(t *locTable) {
	d.pairs = slices.Grow(d.pairs[:0], len(t.locCache))
	for k, e := range t.locCache { //charmvet:ordered (load rebuilds a map: the order is never observed)
		d.pairs = append(d.pairs, locPair{k, e})
	}
	d.dense = slices.Grow(d.dense[:0], len(t.locDense))[:len(t.locDense)]
	for aid, dt := range t.locDense {
		if dt == nil {
			d.dense[aid] = nil
			continue
		}
		d.dense[aid] = append(d.dense[aid][:0], dt...)
	}
}

// load replaces t's hints with a deep copy of d's. Empty forms load as nil.
func (t *locTable) load(d *locDump) {
	*t = locTable{}
	if len(d.pairs) > 0 {
		t.locCache = make(map[elemKey]locEnt, len(d.pairs))
		for _, p := range d.pairs {
			t.locCache[p.k] = p.e
		}
	}
	for aid, dd := range d.dense {
		if dd == nil {
			continue
		}
		if t.locDense == nil {
			t.locDense = make([][]locEnt, len(d.dense))
		}
		t.locDense[aid] = slices.Clone(dd)
	}
}

// reset drops every hint and the storage behind them.
func (t *locTable) reset() { *t = locTable{} }
