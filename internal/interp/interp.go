// Package interp implements the Reticle reference interpreter
// (Algorithm 1 of the paper). A program is evaluated against an input
// trace — one map of input values per clock cycle — and produces an output
// trace. Pure instructions are evaluated in dependency order each cycle;
// register instructions update synchronously at the end of the cycle.
package interp

import (
	"fmt"

	"reticle/internal/ir"
)

// Step is the values observed on a set of ports during one clock cycle.
type Step map[string]ir.Value

// Trace is a sequence of steps, one per clock cycle. An input trace gives a
// complete specification of a circuit's inputs for every cycle; an output
// trace does so for the outputs.
type Trace []Step

// Machine is a prepared interpreter for one function: the well-formedness
// split into pure and register queues, plus the register environment.
// A Machine can be stepped cycle by cycle (for interactive co-simulation)
// or run over a whole trace.
type Machine struct {
	fn   *ir.Func
	pure []int // indices of pure instructions, topologically sorted
	regs []int // indices of reg instructions
	env  map[string]ir.Value
}

// New checks the function and prepares a machine with registers at their
// initial values. It fails if the function is ill-formed (§6.1).
func New(fn *ir.Func) (*Machine, error) {
	if err := ir.Check(fn); err != nil {
		return nil, err
	}
	pure, regs, err := ir.CheckWellFormed(fn)
	if err != nil {
		return nil, err
	}
	m := &Machine{fn: fn, pure: pure, regs: regs, env: make(map[string]ir.Value)}
	m.Reset()
	return m, nil
}

// Reset restores every register to its initial value and clears the
// environment.
func (m *Machine) Reset() {
	for k := range m.env {
		delete(m.env, k)
	}
	for _, i := range m.regs {
		in := m.fn.Body[i]
		m.env[in.Dest] = ir.RegInit(in)
	}
}

// Step runs one clock cycle: update inputs, evaluate pure instructions,
// snapshot outputs, then commit register updates (Algorithm 1 lines 6–10).
func (m *Machine) Step(inputs Step) (Step, error) {
	// Line 6: update input variables.
	for _, p := range m.fn.Inputs {
		v, ok := inputs[p.Name]
		if !ok {
			return nil, fmt.Errorf("interp: input %q missing from step", p.Name)
		}
		if v.Type() != p.Type {
			return nil, fmt.Errorf("interp: input %q has type %s, want %s",
				p.Name, v.Type(), p.Type)
		}
		m.env[p.Name] = v
	}
	// Line 7: evaluate pure instructions under the current environment.
	for _, i := range m.pure {
		in := m.fn.Body[i]
		args, err := m.args(in)
		if err != nil {
			return nil, err
		}
		v, err := ir.EvalPure(in, args)
		if err != nil {
			return nil, fmt.Errorf("interp: %s: %w", in.Dest, err)
		}
		m.env[in.Dest] = v
	}
	// Lines 8–9: snapshot the outputs.
	out := make(Step, len(m.fn.Outputs))
	for _, p := range m.fn.Outputs {
		v, ok := m.env[p.Name]
		if !ok {
			return nil, fmt.Errorf("interp: output %q has no value", p.Name)
		}
		out[p.Name] = v
	}
	// Line 10: evaluate register instructions, updating state for the next
	// step. All next-values are computed before any is committed so that
	// register-to-register paths see this cycle's pre-update values.
	next := make([]ir.Value, len(m.regs))
	for k, i := range m.regs {
		in := m.fn.Body[i]
		args, err := m.args(in)
		if err != nil {
			return nil, err
		}
		next[k] = ir.RegNext(m.env[in.Dest], args[0], args[1])
	}
	for k, i := range m.regs {
		m.env[m.fn.Body[i].Dest] = next[k]
	}
	return out, nil
}

// Run evaluates the machine over a whole input trace, returning the output
// trace (Algorithm 1). The machine is reset first.
func (m *Machine) Run(trace Trace) (Trace, error) {
	m.Reset()
	out := make(Trace, 0, len(trace))
	for cycle, step := range trace {
		o, err := m.Step(step)
		if err != nil {
			return nil, fmt.Errorf("interp: cycle %d: %w", cycle, err)
		}
		out = append(out, o)
	}
	return out, nil
}

func (m *Machine) args(in ir.Instr) ([]ir.Value, error) {
	args := make([]ir.Value, len(in.Args))
	for i, a := range in.Args {
		v, ok := m.env[a]
		if !ok {
			return nil, fmt.Errorf("interp: %s: argument %q has no value", in.Dest, a)
		}
		args[i] = v
	}
	return args, nil
}

// Run is the convenience entry point of Algorithm 1: check, prepare, and
// evaluate fn over the input trace.
func Run(fn *ir.Func, trace Trace) (Trace, error) {
	m, err := New(fn)
	if err != nil {
		return nil, err
	}
	return m.Run(trace)
}

// Equal reports whether two traces agree on length, keys, and values.
func Equal(a, b Trace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k, v := range a[i] {
			w, ok := b[i][k]
			if !ok || !v.Equal(w) {
				return false
			}
		}
	}
	return true
}
