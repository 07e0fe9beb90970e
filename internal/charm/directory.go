package charm

import "slices"

// directory is the runtime's element authority (§II-D): where a locTable holds
// what one PE believes, the directory holds what is true, and each question is
// answered by one table. key → eid: an in-bounds index of an array with Bounds
// has a slot in the array's flat table (Array.eidTab), every other key an entry
// in hash — a key is only ever stored in one form, so a flat slot is
// authoritative; both forms hold eid+1, so their zero value reads "unminted".
// eid → live element: elems, nil for an id that is minted but not live (a
// destroyed element, or a key known only from a message buffered at its home).
// What lives on a PE: that PE's sorted slice, below.
//
// An eid is minted at a key's first sight and stays the key's — a re-insertion
// reuses it, so stale hints keep routing — until compact renumbers. Senders
// stamp eids from their caches, so a message consults key → eid at most once
// in its lifetime; every later hop indexes elems.
//
// All of it is commit/global state. A phase may read exactly one part, its own
// PE's sorted slice: on the parallel backend a phase runs concurrently with
// other shards' commits, and only same-shard commits and global events ever
// mutate a PE's state.
type directory struct {
	elems []*element
	hash  map[elemKey]int32
}

// eid returns the dense id of k, a key of a, or -1 when none is minted.
func (d *directory) eid(a *Array, k *elemKey) int32 {
	if off := a.lin(k.idx); off >= 0 {
		return a.eidTab[off] - 1
	}
	return d.hash[*k] - 1
}

// eidOf is eid, minting the next id on first sight.
func (d *directory) eidOf(a *Array, k *elemKey) int32 {
	id := d.eid(a, k)
	if id >= 0 {
		return id
	}
	id = int32(len(d.elems))
	d.elems = append(d.elems, nil)
	if off := a.lin(k.idx); off >= 0 {
		a.eidTab[off] = id + 1
	} else {
		d.hash[*k] = id + 1
	}
	return id
}

// insert makes el, whose eid is minted and not live, live on p.
func (d *directory) insert(a *Array, el *element, p *peState) {
	d.elems[el.eid] = el
	a.live++
	p.insertSorted(el)
}

// remove takes el out of every table; its eid stays minted.
func (d *directory) remove(a *Array, el *element, p *peState) {
	d.elems[el.eid] = nil
	a.live--
	p.removeSorted(el)
}

// compact forgets every id and mints them again for the live elements alone,
// in (array, index) order: [0, live), dense. The caller vouches that no
// message, buffer or hint still carries an old one.
func (d *directory) compact(arrays []*Array) {
	var live []*element
	for _, a := range arrays {
		for _, idx := range a.Keys() {
			live = append(live, a.lookup(idx))
		}
		clear(a.eidTab) // a's own table, read for the last time just above
	}
	d.elems, d.hash = make([]*element, 0, len(live)), map[elemKey]int32{}
	for _, el := range live {
		el.eid = d.eidOf(arrays[el.key.array], &el.key)
		d.elems[el.eid] = el
	}
}

// search returns where k sits in p.sorted, which is ordered by (array, index):
// its position when present, its insertion point otherwise. Closure-free —
// find runs on every send.
func (p *peState) search(k *elemKey) int {
	lo, hi := 0, len(p.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e := &p.sorted[mid].key; e.array < k.array || e.array == k.array && e.idx.Less(k.idx) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the element with key k if it lives on p, else nil. A pure read
// of shard-local state: safe from p's own phases.
func (p *peState) find(k *elemKey) *element {
	if i := p.search(k); i < len(p.sorted) && p.sorted[i].key == *k {
		return p.sorted[i]
	}
	return nil
}

func (p *peState) insertSorted(el *element) {
	p.sorted = slices.Insert(p.sorted, p.search(&el.key), el)
}

func (p *peState) removeSorted(el *element) {
	if i := p.search(&el.key); i < len(p.sorted) && p.sorted[i] == el {
		p.sorted = slices.Delete(p.sorted, i, i+1)
	}
}
