package staticsense

import (
	"fmt"

	"kfi/internal/kir"
)

// stackModel classifies bytes of one kernel stack slot. The layout mirrors
// the 2.4-era kernel the campaign injects into: the task_struct sits at the
// bottom of the slot ([0, StructSize)), and the live stack grows down from
// the top toward it. Stack targets resolve at injection time to either the
// live stack span or the task area, so the task area is the only part the
// analysis can say anything static about — per-field, from the same access
// analysis that covers data globals.
type stackModel struct {
	proc *kir.Struct
	acc  *accessMap
	size uint32
	// fieldAt maps each byte offset within the task_struct to its field
	// index, or -1 for alignment padding.
	fieldAt []int
}

func newStackModel(proc *kir.Struct, layout kir.Layout, acc *accessMap) *stackModel {
	size := layout.StructSize(proc)
	m := &stackModel{proc: proc, acc: acc, size: size, fieldAt: make([]int, size)}
	for i := range m.fieldAt {
		m.fieldAt[i] = -1
	}
	for i, f := range proc.Fields {
		off := layout.FieldOffset(proc, i)
		n := f.Count
		if n <= 1 {
			n = 1
		}
		end := off + uint32(f.Width)*uint32(n)
		for b := off; b < end && b < size; b++ {
			m.fieldAt[b] = i
		}
	}
	return m
}

// ClassifyStackByte classifies a single-bit flip of the byte at offset off
// within a kernel stack slot (0 = slot base, where the task_struct lives).
// Offsets above the task_struct are live stack: always ClassUnknown. Within
// the task_struct, never-accessed fields and padding are ClassUnreferenced
// and write-only fields are ClassDeadStore — both inert.
func (a *Analyzer) ClassifyStackByte(off uint32) Prediction {
	m := a.stack
	if m == nil {
		return Prediction{Class: ClassUnknown, Detail: "no task layout model (code-only analyzer)"}
	}
	if off >= m.size {
		return Prediction{Class: ClassUnknown, Detail: "live kernel stack"}
	}
	fi := m.fieldAt[off]
	if fi < 0 {
		return Prediction{Class: ClassUnreferenced, Inert: true,
			Detail: "task_struct alignment padding: never accessed"}
	}
	name := m.proc.Fields[fi].Name
	switch {
	case m.acc.procRead[fi]:
		return Prediction{Class: ClassUnknown, Detail: fmt.Sprintf("task_struct field %q is read", name)}
	case m.acc.procWritten[fi]:
		return Prediction{Class: ClassDeadStore, Inert: true,
			Detail: fmt.Sprintf("task_struct field %q is written but never read", name)}
	default:
		return Prediction{Class: ClassUnreferenced, Inert: true,
			Detail: fmt.Sprintf("task_struct field %q is never accessed", name)}
	}
}
