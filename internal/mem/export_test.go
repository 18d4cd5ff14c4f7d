package mem

// AllocatedPages returns how many RAM pages hold an allocated backing array:
// the pages written since New, whatever they now contain.
func (m *Memory) AllocatedPages() int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}
