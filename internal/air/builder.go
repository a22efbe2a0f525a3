package air

import "fmt"

// ProgramBuilder assembles a Program class by class. The synthetic apps in
// internal/apps use it as their "compiler back end".
type ProgramBuilder struct {
	prog *Program
}

// NewProgramBuilder returns an empty program builder.
func NewProgramBuilder() *ProgramBuilder {
	return &ProgramBuilder{prog: &Program{}}
}

// Class opens (or reopens) a class with the given kind.
func (pb *ProgramBuilder) Class(name string, kind ComponentKind) *ClassBuilder {
	for _, c := range pb.prog.Classes {
		if c.Name == name {
			return &ClassBuilder{pb: pb, class: c}
		}
	}
	c := &Class{Name: name, Kind: kind}
	pb.prog.Classes = append(pb.prog.Classes, c)
	return &ClassBuilder{pb: pb, class: c}
}

// Build finalizes and verifies the program.
func (pb *ProgramBuilder) Build() (*Program, error) {
	pb.prog.ReindexMethods()
	if err := Verify(pb.prog); err != nil {
		return nil, err
	}
	return pb.prog, nil
}

// MustBuild is Build that panics on error; the app definitions are static
// data, so a malformed one is a programming bug.
func (pb *ProgramBuilder) MustBuild() *Program {
	p, err := pb.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// ClassBuilder adds methods to one class.
type ClassBuilder struct {
	pb    *ClassBuilderParent
	class *Class
}

// ClassBuilderParent is the program builder interface ClassBuilder needs;
// concretely always *ProgramBuilder.
type ClassBuilderParent = ProgramBuilder

// Method opens a method body with the given parameter count.
func (cb *ClassBuilder) Method(name string, numParams int) *MethodBuilder {
	m := &Method{Name: name, Class: cb.class.Name, NumParams: numParams, NumRegs: numParams}
	cb.class.Methods = append(cb.class.Methods, m)
	mb := &MethodBuilder{method: m, class: cb}
	mb.newBlock() // entry block b0
	return mb
}

// MethodBuilder emits instructions into the current block of a method and
// allocates registers. Parameter i is register Reg(i).
type MethodBuilder struct {
	method *Method
	class  *ClassBuilder
	cur    int
}

// Param returns the register holding parameter i.
func (mb *MethodBuilder) Param(i int) Reg {
	if i < 0 || i >= mb.method.NumParams {
		panic(fmt.Sprintf("air: method %s has %d params, requested %d", mb.method.QualifiedName(), mb.method.NumParams, i))
	}
	return Reg(i)
}

func (mb *MethodBuilder) newReg() Reg {
	r := Reg(mb.method.NumRegs)
	mb.method.NumRegs++
	return r
}

func (mb *MethodBuilder) newBlock() int {
	mb.method.Blocks = append(mb.method.Blocks, Block{})
	mb.cur = len(mb.method.Blocks) - 1
	return mb.cur
}

// Block reserves a new basic block and returns its index without switching
// to it. Use Seal/Goto/If to wire control flow, then Enter to emit into it.
func (mb *MethodBuilder) Block() int {
	mb.method.Blocks = append(mb.method.Blocks, Block{})
	return len(mb.method.Blocks) - 1
}

// Enter switches emission to block idx.
func (mb *MethodBuilder) Enter(idx int) *MethodBuilder {
	if idx < 0 || idx >= len(mb.method.Blocks) {
		panic(fmt.Sprintf("air: invalid block %d", idx))
	}
	mb.cur = idx
	return mb
}

func (mb *MethodBuilder) emit(in Instr) {
	b := &mb.method.Blocks[mb.cur]
	b.Instrs = append(b.Instrs, in)
}

// ConstStr emits a string constant load and returns the destination register.
func (mb *MethodBuilder) ConstStr(s string) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpConstStr, Dst: d, Str: s, A: NoReg, B: NoReg})
	return d
}

// ConstInt emits an integer constant load.
func (mb *MethodBuilder) ConstInt(n int64) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpConstInt, Dst: d, Int: n, A: NoReg, B: NoReg})
	return d
}

// Move copies src into a fresh register.
func (mb *MethodBuilder) Move(src Reg) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpMove, Dst: d, A: src, B: NoReg})
	return d
}

// Concat emits dst = a + b.
func (mb *MethodBuilder) Concat(a, b Reg) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpConcat, Dst: d, A: a, B: b})
	return d
}

// ConcatStr concatenates a register with a trailing string literal.
func (mb *MethodBuilder) ConcatStr(a Reg, s string) Reg {
	return mb.Concat(a, mb.ConstStr(s))
}

// StrConcat concatenates a leading string literal with a register.
func (mb *MethodBuilder) StrConcat(s string, b Reg) Reg {
	return mb.Concat(mb.ConstStr(s), b)
}

// NewObject allocates an instance of class name.
func (mb *MethodBuilder) NewObject(class string) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpNewObject, Dst: d, Sym: class, A: NoReg, B: NoReg})
	return d
}

// IPut stores src into obj.field.
func (mb *MethodBuilder) IPut(obj Reg, field string, src Reg) {
	mb.emit(Instr{Op: OpIPut, A: obj, B: src, Sym: field, Dst: NoReg})
}

// IGet loads obj.field.
func (mb *MethodBuilder) IGet(obj Reg, field string) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpIGet, Dst: d, A: obj, Sym: field, B: NoReg})
	return d
}

// NewMap allocates an empty map.
func (mb *MethodBuilder) NewMap() Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpNewMap, Dst: d, A: NoReg, B: NoReg})
	return d
}

// MapPut stores m[key] = src.
func (mb *MethodBuilder) MapPut(m Reg, key string, src Reg) {
	mb.emit(Instr{Op: OpMapPut, A: m, B: src, Sym: key, Dst: NoReg})
}

// MapGet loads m[key].
func (mb *MethodBuilder) MapGet(m Reg, key string) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpMapGet, Dst: d, A: m, Sym: key, B: NoReg})
	return d
}

// NewList allocates an empty list.
func (mb *MethodBuilder) NewList() Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpNewList, Dst: d, A: NoReg, B: NoReg})
	return d
}

// ListAdd appends src to list.
func (mb *MethodBuilder) ListAdd(list, src Reg) {
	mb.emit(Instr{Op: OpListAdd, A: list, B: src, Dst: NoReg})
}

// Invoke calls a user method by qualified name.
func (mb *MethodBuilder) Invoke(qualified string, args ...Reg) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpInvoke, Dst: d, Sym: qualified, Args: args, A: NoReg, B: NoReg})
	return d
}

// CallAPI calls a semantic API.
func (mb *MethodBuilder) CallAPI(api string, args ...Reg) Reg {
	d := mb.newReg()
	mb.emit(Instr{Op: OpCallAPI, Dst: d, Sym: api, Args: args, A: NoReg, B: NoReg})
	return d
}

// If branches to block target when cond is truthy.
func (mb *MethodBuilder) If(cond Reg, target int) {
	mb.emit(Instr{Op: OpIf, A: cond, Target: target, B: NoReg, Dst: NoReg})
}

// IfNull branches to block target when v is null.
func (mb *MethodBuilder) IfNull(v Reg, target int) {
	mb.emit(Instr{Op: OpIfNull, A: v, Target: target, B: NoReg, Dst: NoReg})
}

// Goto jumps to block target.
func (mb *MethodBuilder) Goto(target int) {
	mb.emit(Instr{Op: OpGoto, Target: target, A: NoReg, B: NoReg, Dst: NoReg})
}

// ForEach iterates the list register, invoking the qualified method with
// (element, extra...) per iteration.
func (mb *MethodBuilder) ForEach(list Reg, qualified string, extra ...Reg) {
	mb.emit(Instr{Op: OpForEach, A: list, Sym: qualified, Args: extra, B: NoReg, Dst: NoReg})
}

// Return emits a return of v (pass NoReg for a void return).
func (mb *MethodBuilder) Return(v Reg) {
	mb.emit(Instr{Op: OpReturn, A: v, B: NoReg, Dst: NoReg})
}

// Done finishes the method, appending an implicit void return when the last
// block does not already end in a terminator.
func (mb *MethodBuilder) Done() *Method {
	last := &mb.method.Blocks[len(mb.method.Blocks)-1]
	if n := len(last.Instrs); n == 0 || !isTerminator(last.Instrs[n-1].Op) {
		last.Instrs = append(last.Instrs, Instr{Op: OpReturn, A: NoReg, B: NoReg, Dst: NoReg})
	}
	return mb.method
}

func isTerminator(op Op) bool {
	return op == OpReturn || op == OpGoto
}
