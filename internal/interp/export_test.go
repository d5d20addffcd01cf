package interp

import "reticle/internal/ir"

// Clone returns a copy of the step.
func (s Step) Clone() Step {
	out := make(Step, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Peek returns the current value of a variable, if it has one.
func (m *Machine) Peek(name string) (ir.Value, bool) {
	v, ok := m.env[name]
	return v, ok
}
