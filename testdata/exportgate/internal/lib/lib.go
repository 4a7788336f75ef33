// Package lib plants one dead method, one dead field and a dead pair that
// names only each other among exports that each rule of the export gate
// counts as used.
package lib

import "fmt"

// Widget has a used, a dead, a tagged and a benchmark-only field.
type Widget struct {
	Live  int
	Dead  int
	Wire  int `json:"wire"`
	Bench int
}

// New is used by the main package.
func New() *Widget { return &Widget{} }

// Run is called by the main package.
func (w *Widget) Run() { w.Live++ }

// Flush satisfies the anonymous interface the main package asserts.
func (w *Widget) Flush() error { return nil }

// String is always used.
func (w *Widget) String() string { return "widget" }

// Unused has no caller.
func (w *Widget) Unused() {}

// Seam is test-only and listed, which covers its method and field.
type Seam struct{ Field int }

// Probe is covered by Seam's entry.
func (Seam) Probe() int { return 0 }

// Orphan is named only by NewOrphan and a blank assertion.
type Orphan struct{}

var _ fmt.Stringer = (*Orphan)(nil)

// NewOrphan is called only from Orphan's own method.
func NewOrphan() *Orphan { return &Orphan{} }

// String satisfies fmt.Stringer.
func (o *Orphan) String() string { return fmt.Sprint(o.clone() == o) }

func (o *Orphan) clone() *Orphan { return NewOrphan() }

// Ref is named only by NewRef, whose listing keeps it.
type Ref struct{}

// NewRef is test-only and listed.
func NewRef() *Ref { return &Ref{} }
