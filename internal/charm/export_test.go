package charm

import "charmgo/internal/pup"

// PackLive packs the live state of the element at idx without marking its
// image dirty (Array.Get would): an oracle for what AppendImage must return.
func PackLive(a *Array, idx Index) []byte { return pup.Pack(a.mustLookup(idx, "PackLive").obj) }
