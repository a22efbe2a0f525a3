package proxy

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"appx/internal/air"
	"appx/internal/apps"
	"appx/internal/config"
	"appx/internal/httpmsg"
	"appx/internal/persist"
	"appx/internal/sig"
	"appx/internal/static"
)

// TestSlotsNumberPlanFields: every query, header and form field of every
// compiled successor plan names, by PlanField.Slot, the slot of its record
// with the same section and key, and a slot's captures are as many as its
// pattern's unknown parts — over all five apps' graphs and fanoutGraph.
func TestSlotsNumberPlanFields(t *testing.T) {
	graphs := []*sig.Graph{fanoutGraph()}
	for _, app := range apps.All() {
		g, err := static.Analyze(app.APK.Program, app.Name, app.APK.Entries(), static.Options{Features: static.AllFeatures()})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	checked := 0
	for _, g := range graphs {
		tab := newSigTable(g, config.Default(g))
		for _, st := range tab.all {
			for _, sl := range st.slots {
				unknown := 0
				for _, part := range sl.value.Parts {
					if part.Kind != sig.Lit {
						unknown++
					}
				}
				if sl.end-sl.at != unknown {
					t.Fatalf("%s %s:%s takes %d captures for %d unknown parts", st.sig.ID, sl.where, sl.key, sl.end-sl.at, unknown)
				}
			}
			if st.plan == nil {
				continue
			}
			for _, ps := range st.plan.succs {
				n := 0
				for _, sec := range []struct {
					where  string
					fields []sig.PlanField
				}{{"query", ps.Query}, {"header", ps.Header}, {"form", ps.Form}} {
					for _, f := range sec.fields {
						if sl := ps.st.slots[f.Slot]; sl.where != sec.where || sl.key != f.Key {
							t.Fatalf("%s: %s:%s has slot %d, which is %s:%s", ps.Sig.ID, sec.where, f.Key, f.Slot, sl.where, sl.key)
						}
						n++
						checked++
					}
				}
				if n != len(ps.st.slots) {
					t.Fatalf("%s: %d plan fields for %d slots", ps.Sig.ID, n, len(ps.st.slots))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no plan field checked")
	}
}

// TestLocationKeyedSnapshotRestores: a snapshot in the location-keyed form
// ("query:k" → captures, presence) restores into slot-numbered exemplars,
// the restored exemplar materializes the request the live one does, and the
// next snapshot files it in the same form.
func TestLocationKeyedSnapshotRestores(t *testing.T) {
	s := mkSig()
	live := &httpmsg.Request{
		Method: "POST", Host: "api.wish.example", Path: "/product/get",
		Header:   []httpmsg.Field{{Key: "Cookie", Value: "bsid=42"}},
		BodyKind: httpmsg.BodyForm,
		BodyForm: []httpmsg.Field{{Key: "cid", Value: "zzz"}, {Key: "_client", Value: "android"}, {Key: "credit_id", Value: "cc-99"}},
	}
	const snapshot = `{"users":[{"key":"U","lastSeen":"2026-01-01T00:00:00Z","exemplars":{"t:succ#0":{
		"uriWilds":["api.wish.example"],
		"fieldWilds":{"header:Cookie":["bsid=42"],"form:cid":["zzz"],"form:_client":null,"form:credit_id":["cc-99"]},
		"present":{"header:Cookie":true,"form:cid":true,"form:_client":true,"form:credit_id":true},
		"headers":[{"k":"Cookie","v":"bsid=42"}]}}}]}`
	var st persist.State
	if err := json.Unmarshal([]byte(snapshot), &st); err != nil {
		t.Fatal(err)
	}
	want := st.Users[0].Exemplars["t:succ#0"]
	// The hand-written form is what the location-keyed exemplar records.
	if ref := learnExemplar(s, live); !reflect.DeepEqual(want.FieldWilds, ref.fieldWilds) || !reflect.DeepEqual(want.Present, ref.present) {
		t.Fatalf("snapshot fields %v %v, location-keyed exemplar %v %v", want.FieldWilds, want.Present, ref.fieldWilds, ref.present)
	}

	g := sig.NewGraph("t")
	g.Add(&sig.Signature{ID: "t:pred#0", Method: "GET", URI: sig.Literal("h.example/pred")})
	g.Add(s)
	g.AddDep(sig.Dependency{PredID: "t:pred#0", SuccID: s.ID})
	p := New(Options{Graph: g, Config: config.Default(g),
		Upstream: UpstreamFunc(func(context.Context, *httpmsg.Request) (*httpmsg.Response, error) {
			return &httpmsg.Response{Status: 200}, nil
		})})
	t.Cleanup(p.Close)
	p.applyState(&st)
	restored := p.user("U").exemplars[s.ID]
	if restored == nil {
		t.Fatal("no exemplar restored")
	}
	ps := &p.sigs.byID["t:pred#0"].plan.succs[0]
	got, ok := materialize(ps, []string{"x1"}, restored)
	wantReq, _ := materialize(ps, []string{"x1"}, ps.st.learnExemplar(live))
	if !ok || !reflect.DeepEqual(got, wantReq) {
		t.Fatalf("restored exemplar materializes\n %+v\nthe live one\n %+v", got, wantReq)
	}
	if v, _ := got.GetForm("credit_id"); v != "cc-99" {
		t.Fatalf("credit_id = %q, want the restored instance class's cc-99", v)
	}
	var again persist.ExemplarState
	for _, us := range p.exportState().Users {
		if us.Key == "U" {
			again = us.Exemplars[s.ID]
		}
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("exported %+v, restored from %+v", again, want)
	}
}

// TestDeviceValueWithNewlineNotTaught: a device value is captured by the
// field's pattern, whose unknowns never hold '\n', so a URL-decoded query or
// form value holding one teaches the profile nothing — as the exemplar
// records no capture for it.
func TestDeviceValueWithNewlineNotTaught(t *testing.T) {
	s := &sig.Signature{ID: "t:dev#0", Method: "POST", URI: sig.Literal("h.example/dev"),
		Query:    []sig.Field{{Key: "_locale", Value: sig.Wildcard(air.APIDeviceLocale)}},
		BodyForm: []sig.Field{{Key: "v", Value: sig.Concat(sig.Literal("v"), sig.Wildcard(air.APIDeviceVersion))}}}
	st := &sigState{sig: s}
	st.compileSlots()
	st.compileShape()
	req := func(locale, version string) *httpmsg.Request {
		return &httpmsg.Request{Method: "POST", Host: "h.example", Path: "/dev",
			Query: []httpmsg.Field{{Key: "_locale", Value: locale}}, BodyKind: httpmsg.BodyForm,
			BodyForm: []httpmsg.Field{{Key: "v", Value: "v" + version}}}
	}
	var pr profile
	pr.teach(st, req("en\nUS", "2\n1"))
	if len(pr.values) != 0 {
		t.Fatalf("taught %v from values holding a newline", pr.values)
	}
	if ex := st.learnExemplar(req("en\nUS", "2\n1")); ex.has(0, slotCaptured) || ex.has(1, slotCaptured) || !ex.has(0, slotPresent) {
		t.Fatalf("exemplar seen = %v, want both present, neither captured", ex.seen)
	}
	pr.teach(st, req("en-US", "2.1"))
	if want := map[devKey]string{keyOf(air.APIDeviceLocale, ""): "en-US", keyOf(air.APIDeviceVersion, ""): "2.1"}; !reflect.DeepEqual(pr.values, want) {
		t.Fatalf("profile values %v, want %v", pr.values, want)
	}
}
