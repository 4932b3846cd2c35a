// Package main seeds dead code for the unreached pass: a function, a
// method, a table and a type no root leads to, next to declarations
// reached only through a package-level table, a stdlib interface, a
// module interface, a method value, a method set, or an ignore directive.
package main

import (
	"fmt"
	"net/http"
)

func main() {
	var w http.ResponseWriter = &GoodRecorder{}
	fmt.Fprint(w, "ok")
	fmt.Println(goodTable["double"](2))
	var s GoodShape = goodSquare{side: 3}
	fmt.Println(s.Area())
	l := &ledger{}
	apply(l.goodAdd, 4)
	fmt.Println(l.total)
}

// goodTable is a package-level table: its entries are reached when the
// package initializes.
var goodTable = map[string]func(int) int{
	"double": goodDouble,
}

func goodDouble(x int) int { return 2 * x }

// GoodRecorder implements http.ResponseWriter (and no ServeHTTP); its
// methods are called through the interface by the stdlib.
type GoodRecorder struct{ hdr http.Header }

func (r *GoodRecorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *GoodRecorder) Write(p []byte) (int, error) { return len(p), nil }

func (r *GoodRecorder) WriteHeader(int) {}

// GoodShape is a module interface; goodSquare.Area is reached only
// through it.
type GoodShape interface{ Area() float64 }

type goodSquare struct{ side float64 }

func (q goodSquare) Area() float64 { return q.side * q.side }

type ledger struct{ total int }

// goodAdd is reached only as a method value passed to apply.
func (l *ledger) goodAdd(n int) { l.total += n }

func apply(f func(int), n int) { f(n) }

// dropStale has no caller at all.
func (l *ledger) dropStale() { l.total = 0 } // seeded violation

// deadHelper has no caller at all.
func deadHelper(x int) int { return x + 1 } // seeded violation

// finlint:ignore unreached reference the fast path is tested against
func ignoredReference(x int) int { return x + 1 }

// deadTable is read by nothing.
var deadTable = [2]float64{1, 2} // seeded violation

// deadConfig is named by nothing.
type deadConfig struct{ steps int } // seeded violation

// goodQuiet is named by nothing, but its String method satisfies
// fmt.Stringer, and a type is reached through its method set.
type goodQuiet struct{}

func (goodQuiet) String() string { return "quiet" }
