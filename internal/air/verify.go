package air

import (
	"fmt"
)

// Verify checks structural well-formedness of a program:
//
//   - every block's branch targets are in range,
//   - every non-final block ends in a terminator or falls through to an
//     existing next block,
//   - register operands are within the method frame,
//   - invoked user methods exist and are called with the right arity,
//   - API names are known and called with plausible arity,
//   - ForEach handler methods exist and accept 1+len(extra) parameters.
//
// The interpreter and the static analyzer both assume a verified program.
func Verify(p *Program) error {
	p.ReindexMethods()
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			if err := verifyMethod(p, m); err != nil {
				return fmt.Errorf("air: %s: %w", m.QualifiedName(), err)
			}
		}
	}
	return nil
}

func verifyMethod(p *Program, m *Method) error {
	if len(m.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	if m.NumParams > m.NumRegs {
		return fmt.Errorf("numParams %d > numRegs %d", m.NumParams, m.NumRegs)
	}
	for bi, b := range m.Blocks {
		if len(b.Instrs) == 0 && bi != len(m.Blocks)-1 {
			// Empty interior block: permitted (falls through) but suspicious
			// enough to reject — the builder never produces it on purpose.
			return fmt.Errorf("block b%d is empty", bi)
		}
		for ii, in := range b.Instrs {
			if err := verifyInstr(p, m, in); err != nil {
				return fmt.Errorf("b%d[%d] %s: %w", bi, ii, in.String(), err)
			}
		}
	}
	// The final block must end in a terminator (Done() guarantees this).
	last := m.Blocks[len(m.Blocks)-1]
	if n := len(last.Instrs); n == 0 || !isTerminator(last.Instrs[n-1].Op) {
		return fmt.Errorf("final block does not end in a terminator")
	}
	return nil
}

func verifyInstr(p *Program, m *Method, in Instr) error {
	checkReg := func(r Reg, allowNone bool) error {
		if r == NoReg {
			if allowNone {
				return nil
			}
			return fmt.Errorf("missing register operand")
		}
		if int(r) < 0 || int(r) >= m.NumRegs {
			return fmt.Errorf("register %s out of range [0,%d)", r, m.NumRegs)
		}
		return nil
	}
	checkTarget := func(t int) error {
		if t < 0 || t >= len(m.Blocks) {
			return fmt.Errorf("branch target b%d out of range", t)
		}
		return nil
	}

	switch in.Op {
	case OpConstStr, OpConstInt, OpConstBool, OpNewObject, OpNewMap, OpNewList:
		return checkReg(in.Dst, false)
	case OpMove:
		if err := checkReg(in.Dst, false); err != nil {
			return err
		}
		return checkReg(in.A, false)
	case OpConcat:
		if err := checkReg(in.Dst, false); err != nil {
			return err
		}
		if err := checkReg(in.A, false); err != nil {
			return err
		}
		return checkReg(in.B, false)
	case OpIPut, OpMapPut:
		if in.Sym == "" {
			return fmt.Errorf("missing field/key name")
		}
		if err := checkReg(in.A, false); err != nil {
			return err
		}
		return checkReg(in.B, false)
	case OpIGet, OpMapGet:
		if in.Sym == "" {
			return fmt.Errorf("missing field/key name")
		}
		if err := checkReg(in.Dst, false); err != nil {
			return err
		}
		return checkReg(in.A, false)
	case OpListAdd:
		if err := checkReg(in.A, false); err != nil {
			return err
		}
		return checkReg(in.B, false)
	case OpInvoke:
		callee := p.Method(in.Sym)
		if callee == nil {
			return fmt.Errorf("unknown method %q", in.Sym)
		}
		if len(in.Args) != callee.NumParams {
			return fmt.Errorf("method %q wants %d args, got %d", in.Sym, callee.NumParams, len(in.Args))
		}
		for _, a := range in.Args {
			if err := checkReg(a, false); err != nil {
				return err
			}
		}
		return checkReg(in.Dst, false)
	case OpCallAPI:
		want, ok := apiArity[in.Sym]
		if !ok {
			return fmt.Errorf("unknown API %q", in.Sym)
		}
		if len(in.Args) != want {
			return fmt.Errorf("API %q wants %d args, got %d", in.Sym, want, len(in.Args))
		}
		for _, a := range in.Args {
			if err := checkReg(a, false); err != nil {
				return err
			}
		}
		return checkReg(in.Dst, false)
	case OpIf, OpIfNull:
		if err := checkReg(in.A, false); err != nil {
			return err
		}
		return checkTarget(in.Target)
	case OpGoto:
		return checkTarget(in.Target)
	case OpForEach:
		callee := p.Method(in.Sym)
		if callee == nil {
			return fmt.Errorf("unknown for-each handler %q", in.Sym)
		}
		if callee.NumParams != 1+len(in.Args) {
			return fmt.Errorf("for-each handler %q wants %d params, got element+%d extras", in.Sym, callee.NumParams, len(in.Args))
		}
		for _, a := range in.Args {
			if err := checkReg(a, false); err != nil {
				return err
			}
		}
		return checkReg(in.A, false)
	case OpReturn:
		return checkReg(in.A, true)
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
}

// apiArity maps each semantic API to its expected argument count.
var apiArity = map[string]int{
	APIHTTPNewRequest:   1,
	APIHTTPSetURL:       2,
	APIHTTPAddQuery:     3,
	APIHTTPAddHeader:    3,
	APIHTTPSetBodyField: 3,
	APIHTTPExecute:      1,
	APIHTTPRespBody:     1,
	APIJSONGet:          2,
	APIJSONForEach:      2,
	APIListGet:          2,
	APIListLen:          1,
	APIDeviceUserAgent:  0,
	APIDeviceCookie:     1,
	APIDeviceLocale:     0,
	APIDeviceVersion:    0,
	APIDeviceFlag:       1,
	APIIntentPut:        2,
	APIIntentGet:        1,
	APIRxJust:           1,
	APIRxDefer:          1,
	APIRxMap:            2,
	APIRxFlatMap:        2,
	APIRxSubscribe:      2,
	APIUIRender:         1,
	APIUIShowImage:      1,
}
