package air

// ConstBool emits a boolean constant load.
func (mb *MethodBuilder) ConstBool(v bool) Reg {
	d := mb.newReg()
	n := int64(0)
	if v {
		n = 1
	}
	mb.emit(Instr{Op: OpConstBool, Dst: d, Int: n, A: NoReg, B: NoReg})
	return d
}
