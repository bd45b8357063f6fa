// Tree compiler and bytecode VM (DESIGN.md §5j).
//
// Tree.Eval walks the flat prefix encoding backwards with a value
// stack; the scan order is a pure function of the tree, so it can be
// recorded once and replayed without re-decoding nodes. Compile lowers
// a validated tree into exactly that instruction sequence — flat
// postfix bytecode with an inline constant pool — and VM replays it
// across a block of environments at once: each instruction runs as one
// loop over the lanes, each lane one environment. Steady-state
// evaluation allocates nothing: the interpreter zeroes a 4KiB operand
// array per call, the VM reuses lane registers sized to the program's
// real high-water mark times the lane count.
//
// Determinism: the VM executes the same float64 operations in the same
// order as Tree.Eval — Table I operators are specialized to dedicated
// opcodes whose bodies are copies of the builtin functions (same
// protected-division epsilon and fallback) or, for the protected
// modulo, call protMod, the very function behind Mod.F2; custom operators
// fall back to calling the Op function itself, intermediate NaN/±Inf
// values propagate untouched, and only the root value collapses NaN to
// 0 exactly like Eval. Lanes never mix: lane i computes from lane i's
// inputs alone. Results are therefore bit-identical to the interpreter
// on every lane (FuzzCompiledEval proves it differentially).
package gp

import (
	"fmt"
	"math"
	"reflect"
)

// opcode selects one VM instruction. Table I operators (plus the
// extension builtins) get dedicated opcodes so the hot loop never
// makes an indirect call; opCall1/opCall2 cover custom operators.
type opcode uint8

const (
	opConst opcode = iota // push val
	opTerm                // push env[idx]
	opAdd
	opSub
	opMul
	opDivP // protected division, x/0 → 1
	opModP // protected modulo, mod(x,0) → 1
	opNeg
	opMin
	opMax
	opCall1 // ops[idx].F1
	opCall2 // ops[idx].F2
)

// instr is one bytecode instruction. Constants are carried inline
// (val), terminals and custom-operator calls index via idx.
type instr struct {
	op  opcode
	idx uint8
	val float64
}

// Program is a compiled tree: the instruction stream in execution
// order, the operator table for custom-op fallback, and the exact
// operand-stack requirement. A Program is immutable once Compile
// returns, so any number of VMs may execute it concurrently; the
// engine compiles each predator once per generation and shares the
// program across workers.
type Program struct {
	code  []instr
	ops   []Op      // the compile set's operators, for opCall fallback
	terms int       // required environment length (len(set.Terms) at compile)
	reads [2]uint64 // bit t set when the code reads terminal t
	depth int       // operand-stack high-water mark
	size  int       // node count of the source tree
}

// Size returns the node count of the compiled tree.
func (p *Program) Size() int { return p.size }

// StackDepth returns the operand-stack high-water mark of the program.
func (p *Program) StackDepth() int { return p.depth }

// Terms returns the environment length the program requires.
func (p *Program) Terms() int { return p.terms }

// ReadsTerm reports whether the program reads terminal t, so a batched
// caller can skip filling the lanes of terminals it never reads.
func (p *Program) ReadsTerm(t int) bool { return p.reads[t/64]&(1<<(t%64)) != 0 }

// builtinOps maps an Op function's code pointer to its dedicated
// opcode. Identity by function pointer is exact: a set whose operator
// IS the builtin (shared function value) specializes, anything else —
// even a same-named reimplementation — takes the generic call path, so
// specialization can never change semantics.
var builtin1 = map[uintptr]opcode{
	reflect.ValueOf(Neg.F1).Pointer(): opNeg,
}

var builtin2 = map[uintptr]opcode{
	reflect.ValueOf(Add.F2).Pointer(): opAdd,
	reflect.ValueOf(Sub.F2).Pointer(): opSub,
	reflect.ValueOf(Mul.F2).Pointer(): opMul,
	reflect.ValueOf(Div.F2).Pointer(): opDivP,
	reflect.ValueOf(Mod.F2).Pointer(): opModP,
	reflect.ValueOf(Min.F2).Pointer(): opMin,
	reflect.ValueOf(Max.F2).Pointer(): opMax,
}

// Compile lowers a validated tree to bytecode. It rejects anything
// Check rejects (including trees over MaxNodes), so a compiled program
// can never index outside an environment of len(s.Terms) or overflow
// its declared stack depth.
func Compile(s *Set, t Tree) (*Program, error) {
	p := &Program{}
	if err := p.Compile(s, t); err != nil {
		return nil, err
	}
	return p, nil
}

// Compile recompiles the program in place, reusing the instruction
// buffer. One Program per worker plus one Compile per (predator,
// generation) makes the evaluation wave allocation-free in steady
// state. The program must not be executing concurrently.
func (p *Program) Compile(s *Set, t Tree) error {
	if err := t.Check(s); err != nil {
		return err
	}
	code := p.code[:0]
	var reads [2]uint64
	// Emit in the interpreter's execution order: the prefix encoding
	// scanned backwards. This is postfix of the mirrored tree — every
	// operator sees its LEFT operand on top of the stack, matching
	// Eval's a=stack[top], b=stack[top-1] convention.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		switch n.kind {
		case kTerm:
			code = append(code, instr{op: opTerm, idx: n.idx})
			reads[n.idx/64] |= 1 << (n.idx % 64)
		case kConst:
			code = append(code, instr{op: opConst, val: n.val})
		default:
			op := &s.Ops[n.idx]
			if op.Arity == 1 {
				if oc, ok := builtin1[reflect.ValueOf(op.F1).Pointer()]; ok {
					code = append(code, instr{op: oc})
				} else {
					code = append(code, instr{op: opCall1, idx: n.idx})
				}
			} else {
				if oc, ok := builtin2[reflect.ValueOf(op.F2).Pointer()]; ok {
					code = append(code, instr{op: oc})
				} else {
					code = append(code, instr{op: opCall2, idx: n.idx})
				}
			}
		}
	}
	// Simulate the stack to record the true high-water mark (Check
	// already proved well-formedness, so cur ends at exactly 1).
	cur, depth := 0, 0
	for _, ins := range code {
		switch ins.op {
		case opConst, opTerm:
			cur++
			if cur > depth {
				depth = cur
			}
		case opNeg, opCall1:
			// unary: replaces the top operand
		default:
			cur--
		}
	}
	if cur != 1 {
		return fmt.Errorf("gp: compile stack imbalance %d", cur)
	}
	p.code = code
	p.ops = s.Ops
	p.terms = len(s.Terms)
	p.reads = reads
	p.depth = depth
	p.size = len(t.nodes)
	return nil
}

// VM executes compiled programs. It owns the lane registers, so it is
// not safe for concurrent use — create one per worker and reuse it;
// after the registers grow to the largest (program, lane count) seen,
// evaluation allocates nothing.
type VM struct {
	regs  [][]float64 // operand stack: one lane vector per slot
	buf   []float64   // owned lane registers, depth × lanes
	env   [][]float64 // Eval's one-lane views of its environment
	one   [1]float64  // Eval's one-lane result
	terms [][]float64 // Scratch's per-terminal input lanes
	in    []float64   // backing store of terms
	out   []float64   // Scratch's output lanes
}

// NewVM returns an empty VM; its registers grow on first use.
func NewVM() *VM { return &VM{} }

// LaneWidth is the lane count batched callers aim for: wide enough that
// each instruction's dispatch is spread over many pairs, small enough
// that a program's registers stay in cache.
const LaneWidth = 64

// Eval executes the program against one environment vector, whose
// layout must match the terminal set the program was compiled over.
// The result is bit-identical to Tree.Eval on the source tree: same
// operation order, same protected-operator semantics, same root-only
// NaN→0 sanitization. It is a one-lane EvalLanes.
func (vm *VM) Eval(p *Program, env []float64) float64 {
	if len(env) < p.terms {
		panic(fmt.Sprintf("gp: environment length %d below program requirement %d", len(env), p.terms))
	}
	vm.env = vm.env[:0]
	for i := range env[:p.terms] {
		vm.env = append(vm.env, env[i:i+1])
	}
	vm.EvalLanes(p, vm.env, vm.one[:])
	return vm.one[0]
}

// EvalLanes executes the program once per lane: lane i reads terminal t
// from terms[t][i] and writes its result to out[i], for len(out) lanes.
// Each instruction runs as one loop over all lanes, so dispatch is paid
// once per instruction rather than once per instruction and lane. Every
// lane performs exactly Eval's float64 operations, so out[i] is
// bit-identical to Eval on lane i's environment. Terminals the program
// does not read (ReadsTerm false) may be nil; terms is never written.
func (vm *VM) EvalLanes(p *Program, terms [][]float64, out []float64) {
	if len(p.code) == 0 {
		panic("gp: evaluating an empty program")
	}
	if len(terms) < p.terms {
		panic(fmt.Sprintf("gp: %d terminal lanes below program requirement %d", len(terms), p.terms))
	}
	n := len(out)
	for t := range terms[:p.terms] {
		if p.ReadsTerm(t) && len(terms[t]) < n {
			panic(fmt.Sprintf("gp: terminal %d has %d lanes, want %d", t, len(terms[t]), n))
		}
	}
	if cap(vm.regs) < p.depth {
		vm.regs = make([][]float64, p.depth)
	}
	if cap(vm.buf) < p.depth*n {
		vm.buf = make([]float64, p.depth*n)
	}
	root := vm.run(p, terms, n)
	for i, v := range root {
		if math.IsNaN(v) {
			v = 0
		}
		out[i] = v
	}
}

// Scratch returns VM-owned lane buffers for a caller that builds lane
// environments for p: one n-lane input vector per terminal and an
// n-lane output vector, ready to pass to EvalLanes. They stay valid
// until the next Scratch call.
func (vm *VM) Scratch(p *Program, n int) (terms [][]float64, out []float64) {
	k := p.terms
	if cap(vm.in) < k*n {
		vm.in = make([]float64, k*n)
	}
	if cap(vm.out) < n {
		vm.out = make([]float64, n)
	}
	if cap(vm.terms) < k {
		vm.terms = make([][]float64, k)
	}
	vm.terms = vm.terms[:k]
	for t := range vm.terms {
		vm.terms[t] = vm.in[t*n : (t+1)*n]
	}
	return vm.terms, vm.out[:n]
}

// run is the dispatch loop; EvalLanes has validated the lanes and sized
// the registers. Stack slot s is the lane vector regs[s]: a terminal is
// pushed as a view of its input lanes, every other instruction writes
// slot s's own registers buf[s·n:(s+1)·n]. An operator's result slot
// is its right operand's, so a lane is read before it is overwritten.
// It returns the root's lanes, before NaN sanitization.
func (vm *VM) run(p *Program, terms [][]float64, n int) []float64 {
	regs := vm.regs[:p.depth]
	buf := vm.buf
	top := -1
	for _, ins := range p.code {
		switch ins.op {
		case opTerm:
			top++
			regs[top] = terms[ins.idx][:n]
			continue
		case opConst:
			top++
			dst := buf[top*n : top*n+n]
			for i := range dst {
				dst[i] = ins.val
			}
			regs[top] = dst
			continue
		case opNeg:
			a, dst := regs[top], buf[top*n:top*n+n]
			a = a[:len(dst)]
			for i := range dst {
				dst[i] = -a[i]
			}
			regs[top] = dst
			continue
		case opCall1:
			a, dst := regs[top], buf[top*n:top*n+n]
			a = a[:len(dst)]
			f := p.ops[ins.idx].F1
			for i := range dst {
				dst[i] = f(a[i])
			}
			regs[top] = dst
			continue
		}
		// Binary: a is the top operand, b the one below it, as in
		// Tree.Eval; the result replaces b.
		a, b := regs[top], regs[top-1]
		top--
		dst := buf[top*n : top*n+n]
		a, b = a[:len(dst)], b[:len(dst)]
		switch ins.op {
		case opAdd:
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
		case opSub:
			for i := range dst {
				dst[i] = a[i] - b[i]
			}
		case opMul:
			for i := range dst {
				dst[i] = a[i] * b[i]
			}
		case opDivP:
			for i := range dst {
				if math.Abs(b[i]) < protEps {
					dst[i] = 1
				} else {
					dst[i] = a[i] / b[i]
				}
			}
		case opModP:
			for i := range dst {
				dst[i] = protMod(a[i], b[i])
			}
		case opMin:
			for i := range dst {
				dst[i] = math.Min(a[i], b[i])
			}
		case opMax:
			for i := range dst {
				dst[i] = math.Max(a[i], b[i])
			}
		default: // opCall2
			f := p.ops[ins.idx].F2
			for i := range dst {
				dst[i] = f(a[i], b[i])
			}
		}
		regs[top] = dst
	}
	return regs[0]
}
