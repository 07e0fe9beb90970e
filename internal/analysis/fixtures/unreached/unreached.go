// Command unreached is a charmvet test fixture for the reachability walk of
// TestEveryFunctionReached: of the functions here and in its facade
// package, the walk must report Unused alone.
package main

import (
	"fmt"
	"net/http"

	"charmgo/internal/analysis/fixtures/unreached/facade"
)

type server struct{}

// handle is reached only as a method value handed to net/http.
func (s *server) handle(w http.ResponseWriter, r *http.Request) {}

type label string

// String is reached only through fmt's Stringer.
func (l label) String() string { return string(l) }

type box[T any] struct{ v T }

// get is a method of a generic type, called on an instantiation.
func (b *box[T]) get() T { return b.v }

// Unused is exported and named nowhere: the one function reported.
func Unused() {}

// Waived is named nowhere either, but waived.
//
//charmvet:unreached fixture: a deliberate entry point
func Waived() {}

func main() {
	http.HandleFunc("/", (&server{}).handle)
	b := &box[int]{v: facade.Answer}
	fmt.Println(label("x"), b.get())
}
