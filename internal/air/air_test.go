package air

import (
	"encoding/json"
	"strings"
	"testing"
)

// buildSample constructs a small two-class program exercising most opcodes:
// an activity that fetches a feed and hands each item id to a detail loader
// through an Intent.
func buildSample(t testing.TB) *Program {
	t.Helper()
	pb := NewProgramBuilder()

	main := pb.Class("MainActivity", KindActivity)
	m := main.Method("onCreate", 0)
	req := m.CallAPI(APIHTTPNewRequest, m.ConstStr("GET"))
	m.CallAPI(APIHTTPSetURL, req, m.ConstStr("https://api.example.com/feed"))
	m.CallAPI(APIHTTPAddHeader, req, m.ConstStr("User-Agent"), m.CallAPI(APIDeviceUserAgent))
	resp := m.CallAPI(APIHTTPExecute, req)
	body := m.CallAPI(APIHTTPRespBody, resp)
	items := m.CallAPI(APIJSONGet, body, m.ConstStr("items"))
	m.ForEach(items, "MainActivity.openDetail")
	m.CallAPI(APIUIRender, m.ConstStr("feed"))
	m.Done()

	h := main.Method("openDetail", 1)
	id := h.CallAPI(APIJSONGet, h.Param(0), h.ConstStr("id"))
	h.CallAPI(APIIntentPut, h.ConstStr("item_id"), id)
	h.Invoke("DetailActivity.onCreate")
	h.Done()

	det := pb.Class("DetailActivity", KindActivity)
	d := det.Method("onCreate", 0)
	did := d.CallAPI(APIIntentGet, d.ConstStr("item_id"))
	dreq := d.CallAPI(APIHTTPNewRequest, d.ConstStr("GET"))
	url := d.StrConcat("https://api.example.com/detail/", did)
	d.CallAPI(APIHTTPSetURL, dreq, url)
	dresp := d.CallAPI(APIHTTPExecute, dreq)
	d.CallAPI(APIUIRender, d.ConstStr("detail"))
	_ = dresp
	d.Done()

	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildAndVerify(t *testing.T) {
	p := buildSample(t)
	if got := len(p.Classes); got != 2 {
		t.Fatalf("classes = %d, want 2", got)
	}
	if p.Method("MainActivity.onCreate") == nil {
		t.Fatal("method index missing MainActivity.onCreate")
	}
	if p.Method("Nope.x") != nil {
		t.Fatal("unexpected method resolution")
	}
}

func TestMethodsOrder(t *testing.T) {
	p := buildSample(t)
	ms := p.Methods()
	want := []string{"MainActivity.onCreate", "MainActivity.openDetail", "DetailActivity.onCreate"}
	if len(ms) != len(want) {
		t.Fatalf("methods = %d, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if m.QualifiedName() != want[i] {
			t.Errorf("method[%d] = %s, want %s", i, m.QualifiedName(), want[i])
		}
	}
}

func TestDisassembleContainsOps(t *testing.T) {
	p := buildSample(t)
	dis := p.Disassemble()
	for _, want := range []string{
		"activity MainActivity",
		"call-api",
		"http.execute",
		"for-each",
		"intent.put",
		`const-str`,
		"concat",
	} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q\n%s", want, dis)
		}
	}
}

func TestVerifyRejectsUnknownMethod(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	m := c.Method("f", 0)
	m.Invoke("Missing.method")
	m.Done()
	if _, err := pb.Build(); err == nil {
		t.Fatal("Build succeeded with unknown invoke target")
	}
}

func TestVerifyRejectsBadArity(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	callee := c.Method("g", 2)
	callee.Return(callee.Param(0))
	m := c.Method("f", 0)
	one := m.ConstInt(1)
	m.Invoke("C.g", one) // wants 2 args
	m.Done()
	if _, err := pb.Build(); err == nil {
		t.Fatal("Build succeeded with wrong invoke arity")
	}
}

func TestVerifyRejectsUnknownAPI(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	m := c.Method("f", 0)
	m.emit(Instr{Op: OpCallAPI, Dst: m.newReg(), Sym: "nope.api", A: NoReg, B: NoReg})
	m.Done()
	if _, err := pb.Build(); err == nil {
		t.Fatal("Build succeeded with unknown API")
	}
}

func TestVerifyRejectsBadAPIArity(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	m := c.Method("f", 0)
	m.emit(Instr{Op: OpCallAPI, Dst: m.newReg(), Sym: APIHTTPExecute, A: NoReg, B: NoReg}) // wants 1 arg
	m.Done()
	if _, err := pb.Build(); err == nil {
		t.Fatal("Build succeeded with wrong API arity")
	}
}

func TestVerifyRejectsOutOfRangeRegister(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	m := c.Method("f", 0)
	m.emit(Instr{Op: OpMove, Dst: m.newReg(), A: Reg(999), B: NoReg})
	m.Done()
	if _, err := pb.Build(); err == nil {
		t.Fatal("Build succeeded with out-of-range register")
	}
}

func TestVerifyRejectsBadBranchTarget(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	m := c.Method("f", 0)
	cond := m.ConstBool(true)
	m.If(cond, 42)
	m.Done()
	if _, err := pb.Build(); err == nil {
		t.Fatal("Build succeeded with out-of-range branch target")
	}
}

func TestVerifyRejectsForEachHandlerArity(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	h := c.Method("handler", 3) // wants element + 2 extras
	h.Done()
	m := c.Method("f", 0)
	list := m.NewList()
	m.ForEach(list, "C.handler") // provides element only
	m.Done()
	if _, err := pb.Build(); err == nil {
		t.Fatal("Build succeeded with bad for-each handler arity")
	}
}

func TestBranchConstruction(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	m := c.Method("pick", 1)
	then := m.Block()
	join := m.Block()
	m.If(m.Param(0), then)
	a := m.ConstStr("no")
	m.emitMoveReturnHelper(a, join)
	m.Enter(then)
	b := m.ConstStr("yes")
	m.emitMoveReturnHelper(b, join)
	m.Enter(join)
	m.Return(NoReg)
	m.Done()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	meth := p.Method("C.pick")
	if len(meth.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(meth.Blocks))
	}
}

// emitMoveReturnHelper emits a goto to the join block (test helper standing
// in for richer terminator variety).
func (mb *MethodBuilder) emitMoveReturnHelper(_ Reg, join int) {
	mb.Goto(join)
}

func TestAPIArity(t *testing.T) {
	if n, ok := apiArity[APIHTTPAddQuery]; !ok || n != 3 {
		t.Fatalf("apiArity[http.addQuery] = %d,%v", n, ok)
	}
	if _, ok := apiArity["bogus"]; ok {
		t.Fatal("apiArity holds a bogus name")
	}
	if len(apiArity) != 25 {
		t.Fatalf("apiArity has %d entries, want 25", len(apiArity))
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpConstStr, Dst: 3, Str: "x"}, `const-str v3, "x"`},
		{Instr{Op: OpIPut, A: 1, B: 2, Sym: "url"}, "iput v1.url, v2"},
		{Instr{Op: OpGoto, Target: 7}, "goto ->b7"},
		{Instr{Op: OpReturn, A: NoReg}, "return _"},
		{Instr{Op: OpMapGet, Dst: 4, A: 2, Sym: "k"}, `map-get v4, v2["k"]`},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestDoneAddsImplicitReturn(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	m := c.Method("f", 0)
	m.ConstInt(1)
	meth := m.Done()
	last := meth.Blocks[len(meth.Blocks)-1]
	if last.Instrs[len(last.Instrs)-1].Op != OpReturn {
		t.Fatal("Done did not append implicit return")
	}
}

func TestDisassembleGolden(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("Tiny", KindService)
	m := c.Method("go", 1)
	s := m.ConstStr("hi")
	cat := m.Concat(m.Param(0), s)
	m.Return(cat)
	m.Done()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := `service Tiny {
  method go(params=1, regs=3) {
    b0:
      const-str v1, "hi"
      concat v2, v0, v1
      return v2
  }
}
`
	if got := p.Disassemble(); got != want {
		t.Fatalf("disassembly mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestProgramJSONRoundTrip(t *testing.T) {
	p := buildSample(t)
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var p2 Program
	if err := json.Unmarshal(b, &p2); err != nil {
		t.Fatal(err)
	}
	p2.ReindexMethods()
	if err := Verify(&p2); err != nil {
		t.Fatalf("round-tripped program fails verification: %v", err)
	}
	if p2.Disassemble() != p.Disassemble() {
		t.Fatal("round trip changed the program")
	}
}

func TestComponentKindStrings(t *testing.T) {
	for k, want := range map[ComponentKind]string{
		KindPlain: "class", KindActivity: "activity", KindService: "service", KindFragment: "fragment",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestOpStringUnknown(t *testing.T) {
	if got := Op(200).String(); got != "op(200)" {
		t.Fatalf("unknown op string = %q", got)
	}
}

// TestVerifyRejectsMalformedInstrs drives every structural check in the
// verifier with a hand-built bad instruction.
func TestVerifyRejectsMalformedInstrs(t *testing.T) {
	cases := []struct {
		name string
		in   Instr
	}{
		{"iput-no-sym", Instr{Op: OpIPut, A: 0, B: 0}},
		{"iget-no-sym", Instr{Op: OpIGet, Dst: 0, A: 0}},
		{"mapput-no-sym", Instr{Op: OpMapPut, A: 0, B: 0}},
		{"concat-missing-b", Instr{Op: OpConcat, Dst: 0, A: 0, B: NoReg}},
		{"move-missing-src", Instr{Op: OpMove, Dst: 0, A: NoReg}},
		{"listadd-bad-reg", Instr{Op: OpListAdd, A: 0, B: Reg(99)}},
		{"if-bad-reg", Instr{Op: OpIf, A: Reg(99), Target: 0}},
		{"goto-bad-target", Instr{Op: OpGoto, Target: -1}},
		{"unknown-op", Instr{Op: Op(99)}},
		{"const-missing-dst", Instr{Op: OpConstStr, Dst: NoReg}},
	}
	for _, c := range cases {
		prog := &Program{Classes: []*Class{{
			Name: "C",
			Methods: []*Method{{
				Name: "f", Class: "C", NumRegs: 1,
				Blocks: []Block{{Instrs: []Instr{c.in, {Op: OpReturn, A: NoReg}}}},
			}},
		}}}
		if err := Verify(prog); err == nil {
			t.Errorf("%s: verifier accepted malformed instruction %v", c.name, c.in)
		}
	}
}

func TestVerifyRejectsStructuralIssues(t *testing.T) {
	// No blocks.
	p := &Program{Classes: []*Class{{Name: "C", Methods: []*Method{{Name: "f", Class: "C"}}}}}
	if err := Verify(p); err == nil {
		t.Error("method without blocks accepted")
	}
	// Params exceed registers.
	p = &Program{Classes: []*Class{{Name: "C", Methods: []*Method{{
		Name: "f", Class: "C", NumParams: 3, NumRegs: 1,
		Blocks: []Block{{Instrs: []Instr{{Op: OpReturn, A: NoReg}}}},
	}}}}}
	if err := Verify(p); err == nil {
		t.Error("params > regs accepted")
	}
	// Empty interior block.
	p = &Program{Classes: []*Class{{Name: "C", Methods: []*Method{{
		Name: "f", Class: "C", NumRegs: 1,
		Blocks: []Block{{}, {Instrs: []Instr{{Op: OpReturn, A: NoReg}}}},
	}}}}}
	if err := Verify(p); err == nil {
		t.Error("empty interior block accepted")
	}
	// Final block without terminator.
	p = &Program{Classes: []*Class{{Name: "C", Methods: []*Method{{
		Name: "f", Class: "C", NumRegs: 1,
		Blocks: []Block{{Instrs: []Instr{{Op: OpConstInt, Dst: 0}}}},
	}}}}}
	if err := Verify(p); err == nil {
		t.Error("missing terminator accepted")
	}
}

func TestBuilderPanics(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.Class("C", KindPlain)
	m := c.Method("f", 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Param out of range", func() { m.Param(5) })
	mustPanic("Enter bad block", func() { m.Enter(42) })
	m.Done()
	mustPanic("MustBuild invalid", func() {
		bad := NewProgramBuilder()
		bc := bad.Class("X", KindPlain)
		bm := bc.Method("g", 0)
		bm.Invoke("Missing.h")
		bm.Done()
		bad.MustBuild()
	})
}

func TestClassReopen(t *testing.T) {
	pb := NewProgramBuilder()
	a := pb.Class("C", KindPlain)
	m1 := a.Method("f", 0)
	m1.Done()
	b := pb.Class("C", KindPlain) // reopen, not duplicate
	m2 := b.Method("g", 0)
	m2.Done()
	p := pb.MustBuild()
	if len(p.Classes) != 1 || len(p.Classes[0].Methods) != 2 {
		t.Fatalf("reopen created duplicate class: %d classes", len(p.Classes))
	}
}
