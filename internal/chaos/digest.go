package chaos

import (
	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
)

// StateDigest fingerprints the live application state: the digest of the
// cut a checkpoint would take now (every element of every declared array,
// PUP-serialized, with its placement; see Snapshot.Digest). A checkpoint
// stores its own cut's digest, so the two are equal right after
// CheckpointNow.
//
// The controller re-packs live state with it twice: after a restore, to
// prove the rollback actually re-materialized the checkpointed bytes
// (recovery is enacted, not modeled), and at end of run, to prove a crashed
// run converged to the failure-free state.
func StateDigest(rt *charm.Runtime) string { return ckpt.ImageDigest(rt) }
