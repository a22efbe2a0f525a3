package apps

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"appx/internal/air"
	"appx/internal/httpmsg"
	"appx/internal/interp"
	"appx/internal/static"
)

// handlerTransport bridges the interpreter's transport straight into the
// app's origin handler, in process.
type handlerTransport struct {
	handler http.Handler
	h       map[string]bool
	txns    []*httpmsg.Transaction
}

func newHandlerTransport(a *App) *handlerTransport {
	hosts := map[string]bool{}
	for _, h := range a.Hosts {
		hosts[h] = true
	}
	return &handlerTransport{handler: a.Handler(0), h: hosts}
}

func (t *handlerTransport) RoundTrip(r *httpmsg.Request) (*httpmsg.Response, error) {
	if !t.h[r.Host] {
		return &httpmsg.Response{Status: 502, Body: []byte("unknown host " + r.Host)}, nil
	}
	hreq, err := r.ToHTTP()
	if err != nil {
		return nil, err
	}
	hreq.Host = r.Host
	rec := httptest.NewRecorder()
	t.handler.ServeHTTP(rec, hreq)
	resp, err := httpmsg.FromHTTPResponse(rec.Result())
	if err != nil {
		return nil, err
	}
	t.txns = append(t.txns, &httpmsg.Transaction{Request: r, Response: resp})
	return resp, nil
}

func runApp(t *testing.T, a *App, interactions func(env *interp.Env)) *handlerTransport {
	t.Helper()
	tr := newHandlerTransport(a)
	env := interp.NewEnv(a.APK.Program, tr, interp.DeviceProps{
		UserAgent: "AppxTest/1.0", Locale: "en-US", AppVersion: a.APK.Manifest.Version,
	})
	if _, err := env.Call(a.APK.Manifest.LaunchHandler); err != nil {
		t.Fatalf("%s launch: %v", a.Name, err)
	}
	if interactions != nil {
		interactions(env)
	}
	return tr
}

func TestAllAppsValidate(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("apps = %d, want 5", len(all))
	}
	names := map[string]bool{}
	for _, a := range all {
		if err := a.APK.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if names[a.Name] {
			t.Errorf("duplicate app name %s", a.Name)
		}
		names[a.Name] = true
		if _, w := a.APK.MainWidget(); w == nil {
			t.Errorf("%s: no main widget", a.Name)
		}
		if len(a.Hosts) == 0 || a.Handler == nil || a.MainPath == "" {
			t.Errorf("%s: incomplete app definition", a.Name)
		}
		for _, h := range a.Hosts {
			if _, ok := a.HostRTT[h]; !ok {
				t.Errorf("%s: missing RTT for host %s", a.Name, h)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("wish") == nil || ByName("nope") != nil {
		t.Fatal("ByName wrong")
	}
}

func TestWishEndToEnd(t *testing.T) {
	a := Wish()
	tr := runApp(t, a, func(env *interp.Env) {
		if _, err := env.Call("WishMain.onSelectItem", "3"); err != nil {
			t.Fatalf("select item: %v", err)
		}
		if _, err := env.Call("WishDetail.onOpenMerchant"); err != nil {
			t.Fatalf("open merchant: %v", err)
		}
	})
	// Launch: 1 feed + 30 thumbs. Select: detail + related + image.
	// Merchant: merchant + ratings + profile image.
	want := 1 + wishFeedN + 3 + 3
	if len(tr.txns) != want {
		t.Fatalf("transactions = %d, want %d", len(tr.txns), want)
	}
	for i, txn := range tr.txns {
		if txn.Response.Status != 200 {
			t.Fatalf("txn %d %s %s -> %d %s", i, txn.Request.Method, txn.Request.URL(),
				txn.Response.Status, txn.Response.Body)
		}
	}
	// The detail image is the large product image.
	var sawBigImage bool
	for _, txn := range tr.txns {
		if txn.Request.Path == "/product-img" && len(txn.Response.Body) == wishImageKB*1000 {
			sawBigImage = true
		}
	}
	if !sawBigImage {
		t.Fatal("product image transaction missing or wrong size")
	}
}

func TestGeekEndToEnd(t *testing.T) {
	a := Geek()
	tr := runApp(t, a, func(env *interp.Env) {
		if _, err := env.Call("GeekMain.onSelectItem", "0"); err != nil {
			t.Fatalf("select item: %v", err)
		}
	})
	want := 1 + geekFeedN + 3
	if len(tr.txns) != want {
		t.Fatalf("transactions = %d, want %d", len(tr.txns), want)
	}
	for i, txn := range tr.txns {
		if txn.Response.Status != 200 {
			t.Fatalf("txn %d %s -> %d %s", i, txn.Request.URL(), txn.Response.Status, txn.Response.Body)
		}
	}
}

func TestDoorDashChainEndToEnd(t *testing.T) {
	a := DoorDash()
	tr := runApp(t, a, func(env *interp.Env) {
		if _, err := env.Call("DDMain.onSelectStore", "2"); err != nil {
			t.Fatalf("select store: %v", err)
		}
		if _, err := env.Call("DDStore.onSelectItem", "1"); err != nil {
			t.Fatalf("select item: %v", err)
		}
	})
	// Launch: stores + 16 images. Store: store + schedule + menu.
	// Item: item + suggest.
	want := 1 + ddStoreN + 3 + 2
	if len(tr.txns) != want {
		t.Fatalf("transactions = %d, want %d", len(tr.txns), want)
	}
	for i, txn := range tr.txns {
		if txn.Response.Status != 200 {
			t.Fatalf("txn %d %s -> %d %s", i, txn.Request.URL(), txn.Response.Status, txn.Response.Body)
		}
	}
}

func TestPurpleOceanEndToEnd(t *testing.T) {
	a := PurpleOcean()
	tr := runApp(t, a, func(env *interp.Env) {
		if _, err := env.Call("POMain.onSelectAdvisor", "4"); err != nil {
			t.Fatalf("select advisor: %v", err)
		}
	})
	want := 1 + poAdvisorN + 3
	if len(tr.txns) != want {
		t.Fatalf("transactions = %d, want %d", len(tr.txns), want)
	}
	for i, txn := range tr.txns {
		if txn.Response.Status != 200 {
			t.Fatalf("txn %d %s -> %d %s", i, txn.Request.URL(), txn.Response.Status, txn.Response.Body)
		}
	}
}

func TestPostmatesEndToEnd(t *testing.T) {
	a := Postmates()
	tr := runApp(t, a, func(env *interp.Env) {
		if _, err := env.Call("PMMain.onSelectRestaurant", "5"); err != nil {
			t.Fatalf("select restaurant: %v", err)
		}
	})
	want := 1 + pmFeedN + 2
	if len(tr.txns) != want {
		t.Fatalf("transactions = %d, want %d", len(tr.txns), want)
	}
	for i, txn := range tr.txns {
		if txn.Response.Status != 200 {
			t.Fatalf("txn %d %s -> %d %s", i, txn.Request.URL(), txn.Response.Status, txn.Response.Body)
		}
	}
}

// TestStaticAnalysisCoversLiveTraffic checks the core soundness property:
// every request each app actually generates matches one of the statically
// extracted signatures.
func TestStaticAnalysisCoversLiveTraffic(t *testing.T) {
	drive := map[string]func(env *interp.Env){
		"wish": func(env *interp.Env) {
			env.Call("WishMain.onSelectItem", "3")
			env.Call("WishDetail.onOpenMerchant")
		},
		"geek":        func(env *interp.Env) { env.Call("GeekMain.onSelectItem", "0") },
		"doordash":    func(env *interp.Env) { env.Call("DDMain.onSelectStore", "2"); env.Call("DDStore.onSelectItem", "1") },
		"purpleocean": func(env *interp.Env) { env.Call("POMain.onSelectAdvisor", "4") },
		"postmates":   func(env *interp.Env) { env.Call("PMMain.onSelectRestaurant", "5") },
	}
	for _, a := range All() {
		g, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
		if err != nil {
			t.Fatalf("%s: Analyze: %v", a.Name, err)
		}
		if len(g.Sigs) == 0 || len(g.Deps) == 0 {
			t.Fatalf("%s: %d sigs, %d deps", a.Name, len(g.Sigs), len(g.Deps))
		}
		tr := runApp(t, a, drive[a.Name])
		for _, txn := range tr.txns {
			if ms := g.MatchRequest(txn.Request); len(ms) == 0 {
				b, _ := g.Marshal()
				t.Fatalf("%s: live request %s %s matches no signature\n%s",
					a.Name, txn.Request.Method, txn.Request.URL(), b)
			}
		}
	}
}

// TestDependencyShapes sanity-checks per-app dependency structure against
// the paper's case studies.
func TestDependencyShapes(t *testing.T) {
	analyze := func(a *App) interface {
		MaxChainLen() int
		Prefetchable() []string
	} {
		g, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		return g
	}
	// DoorDash: stores → store → menu → item → suggest (Figure 11): at
	// least 4 transactions in the longest chain.
	if got := analyze(DoorDash()).MaxChainLen(); got < 4 {
		t.Errorf("doordash chain = %d, want >= 4", got)
	}
	// Wish: feed → detail → merchant → ratings (Figure 12 fan-out + chain).
	if got := analyze(Wish()).MaxChainLen(); got < 4 {
		t.Errorf("wish chain = %d, want >= 4", got)
	}
	for _, a := range All() {
		g := analyze(a)
		if n := len(g.Prefetchable()); n < 2 {
			t.Errorf("%s prefetchable = %d, want >= 2", a.Name, n)
		}
	}
}

// TestWishMerchantFanOut verifies the Figure-12 shape: the detail response
// feeds multiple successor transactions.
func TestWishMerchantFanOut(t *testing.T) {
	a := Wish()
	g, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatal(err)
	}
	var detailID string
	for _, s := range g.Sigs {
		if strings.Contains(s.URI.String(), "/product/get") {
			detailID = s.ID
		}
	}
	if detailID == "" {
		t.Fatal("no detail signature")
	}
	succ := g.Successors(detailID)
	if len(succ) < 2 {
		t.Fatalf("detail successors = %v, want >= 2 (image + merchant)", succ)
	}
}

func TestIDsDeterministic(t *testing.T) {
	a, b := ids("x", 5), ids("x", 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ids not deterministic")
		}
	}
	if ids("x", 3)[0] == ids("y", 3)[0] {
		t.Fatal("namespaces collide")
	}
}

func TestImageBytesDeterministicSize(t *testing.T) {
	b := imageBytes("seed", 1234)
	if len(b) != 1234 {
		t.Fatalf("size = %d", len(b))
	}
	b2 := imageBytes("seed", 1234)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("image bytes not deterministic")
		}
	}
}

// TestImageBytesDistinctPerSeed: equal-size images of different items are
// different payloads, as real images are, so a saving from sharing equal
// bodies is never the generator's collisions.
func TestImageBytesDistinctPerSeed(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 1000; i++ {
		b := imageBytes(fmt.Sprintf("wish-thumb-%06x", i), 4096)
		if len(b) != 4096 {
			t.Fatalf("seed %d: size = %d", i, len(b))
		}
		if j, dup := seen[string(b)]; dup {
			t.Fatalf("seeds %d and %d give the same payload", j, i)
		}
		seen[string(b)] = i
	}
}

// TestServiceEntriesRunAgainstOrigins executes every background service
// entry point (push handlers, sync jobs) through the interpreter against the
// app's origin — they must complete without error and generate traffic.
func TestServiceEntriesRunAgainstOrigins(t *testing.T) {
	for _, a := range All() {
		if len(a.APK.Manifest.ServiceEntries) == 0 {
			t.Errorf("%s: no service entries", a.Name)
			continue
		}
		tr := newHandlerTransport(a)
		env := interp.NewEnv(a.APK.Program, tr, interp.DeviceProps{
			UserAgent: "Svc/1.0", Locale: "en-US", AppVersion: a.APK.Manifest.Version,
		})
		for _, entry := range a.APK.Manifest.ServiceEntries {
			before := len(tr.txns)
			if _, err := env.Call(entry); err != nil {
				t.Errorf("%s: %s: %v", a.Name, entry, err)
				continue
			}
			if len(tr.txns) == before {
				t.Errorf("%s: %s generated no traffic", a.Name, entry)
			}
			for _, txn := range tr.txns[before:] {
				if txn.Response.Status != 200 {
					t.Errorf("%s: %s: %s -> %d %s", a.Name, entry, txn.Request.URL(), txn.Response.Status, txn.Response.Body)
				}
			}
		}
	}
}

// TestPostmatesTrackingChainDepth confirms the six-hop background chain the
// Table-3 comparison relies on.
func TestPostmatesTrackingChainDepth(t *testing.T) {
	a := Postmates()
	g, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MaxChainLen(); got < 6 {
		t.Fatalf("postmates max chain = %d, want >= 6", got)
	}
}

// TestAppProgramsRoundTripThroughAssembler: every evaluation app's full AIR
// program survives disassemble → assemble byte-identically — the assembler
// and disassembler are exact inverses on real-sized programs.
func TestAppProgramsRoundTripThroughAssembler(t *testing.T) {
	for _, a := range All() {
		src := a.APK.Program.Disassemble()
		p2, err := air.Assemble(src)
		if err != nil {
			t.Fatalf("%s: Assemble: %v", a.Name, err)
		}
		if p2.Disassemble() != src {
			t.Fatalf("%s: assembler round trip changed the program", a.Name)
		}
		// The reassembled program must analyze identically.
		g1, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := static.Analyze(p2, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
		if err != nil {
			t.Fatal(err)
		}
		if len(g1.Sigs) != len(g2.Sigs) || len(g1.Deps) != len(g2.Deps) {
			t.Fatalf("%s: analysis differs after round trip: %d/%d sigs, %d/%d deps",
				a.Name, len(g1.Sigs), len(g2.Sigs), len(g1.Deps), len(g2.Deps))
		}
	}
}
