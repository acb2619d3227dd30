// Package aliastest is the oracle for the plan executor's tuple-lifetime
// rule (query.Plan): an emitted tuple is borrowed for the length of the
// emit call, and a consumer that keeps it copies it. The rule is easy to
// break silently, because the executor's own scratch tuples and page
// images often happen to stay unchanged long enough for a test to pass.
// Borrowed makes every violation visible: whatever a consumer kept by
// reference is garbage the moment emit returns.
//
// It lives beside dbtest rather than in it because dbtest is imported by
// package query's own tests and so cannot import query.
package aliastest

import (
	"bytes"

	"dbproc/internal/query"
)

// scribble is what a tuple's bytes become once its emit call has returned.
const scribble = 0xA5

type borrowed struct{ query.Plan }

// Borrowed wraps p so that its consumer sees the shortest lifetime the
// rule allows: each emitted tuple is a private copy, overwritten as soon
// as emit returns. (A copy, because the tuple p emits may be a page image,
// which nobody may write.) The wrapper is transparent to Schema, String
// and Children, so plans explain the same with and without it. Wrap the
// input of the consumer under test; its results must equal the unwrapped
// run's.
func Borrowed(p query.Plan) query.Plan { return borrowed{p} }

// Execute implements query.Plan.
func (b borrowed) Execute(ctx *query.Ctx, emit func([]byte) bool) {
	b.Plan.Execute(ctx, func(tup []byte) bool {
		cp := bytes.Clone(tup)
		cont := emit(cp)
		Scribble(cp)
		return cont
	})
}

// Scribble overwrites each tuple with what a borrowed tuple's bytes become
// once the call that lent it has returned. A test that lends its own
// copies to a consumer scribbles them after the call; whatever the
// consumer kept by reference is then garbage.
func Scribble(tups ...[]byte) {
	for _, t := range tups {
		for i := range t {
			t[i] = scribble
		}
	}
}
