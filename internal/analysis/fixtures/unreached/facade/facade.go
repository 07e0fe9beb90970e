// Package facade is the unreached fixture's facade, as charmgo.go is the
// module's: its package-level declarations count as reached although no
// program uses them.
package facade

import "charmgo/internal/analysis/fixtures/unreached/lib"

// Answer is a constant the fixture's main reads.
const Answer = 42

// Build re-exports lib.Build, which nothing else names.
var Build = lib.Build
