package config

import (
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"appx/internal/jsonpath"
	"appx/internal/sig"
)

func testGraph() *sig.Graph {
	g := sig.NewGraph("app")
	g.Add(&sig.Signature{ID: "pred", Method: "GET", URI: sig.Literal("h/feed")})
	g.Add(&sig.Signature{ID: "succ", Method: "GET", URI: sig.Literal("h/item")})
	g.AddDep(sig.Dependency{PredID: "pred", SuccID: "succ", RespPath: "id",
		Loc: sig.FieldLoc{Where: "query", Key: "id"}})
	return g
}

func TestDefaultConfig(t *testing.T) {
	g := testGraph()
	c := Default(g)
	if len(c.Policies) != 1 {
		t.Fatalf("policies = %d, want 1 (only the successor)", len(c.Policies))
	}
	p := c.Policies[0]
	if !p.Prefetch || p.Probability != 1 {
		t.Fatalf("default policy = %+v", p)
	}
	if p.Hash != g.Sig("succ").Hash() {
		t.Fatal("policy hash mismatch")
	}
	if c.Policy(p.Hash) != p {
		t.Fatal("Policy lookup failed")
	}
}

func TestSetPolicyReplaceAndInsert(t *testing.T) {
	c := Default(testGraph())
	h := c.Policies[0].Hash
	c.SetPolicy(&Policy{Hash: h, Prefetch: false})
	if c.Policy(h).Prefetch {
		t.Fatal("SetPolicy did not replace")
	}
	c.SetPolicy(&Policy{Hash: "new", Prefetch: true})
	if len(c.Policies) != 2 || c.Policy("new") == nil {
		t.Fatal("SetPolicy did not insert")
	}
}

func TestExpirationFallbacks(t *testing.T) {
	c := &Config{DefaultExpiration: Duration(2 * time.Minute)}
	if got := c.Expiration(nil); got != 2*time.Minute {
		t.Fatalf("Expiration(nil) = %v", got)
	}
	p := &Policy{ExpirationTime: Duration(time.Hour)}
	if got := c.Expiration(p); got != time.Hour {
		t.Fatalf("Expiration(policy) = %v", got)
	}
	empty := &Config{}
	if got := empty.Expiration(nil); got != 5*time.Minute {
		t.Fatalf("Expiration fallback = %v", got)
	}
}

func TestEffectiveProbability(t *testing.T) {
	c := &Config{GlobalProbability: 0.5}
	if got := c.EffectiveProbability(&Policy{Prefetch: true, Probability: 0.8}); got != 0.4 {
		t.Fatalf("0.5*0.8 = %v", got)
	}
	if got := c.EffectiveProbability(nil); got != 0.5 {
		t.Fatalf("nil policy = %v", got)
	}
	if got := (&Config{}).EffectiveProbability(&Policy{Prefetch: true}); got != 1 {
		t.Fatalf("defaults = %v", got)
	}
	if got := (&Config{GlobalProbability: -3}).EffectiveProbability(nil); got != 0 {
		t.Fatalf("clamp low = %v", got)
	}
}

func TestConditionEval(t *testing.T) {
	doc, _ := jsonpath.Decode([]byte(`{"data":{"price":1500,"name":"silk road","tags":[{"v":"a"},{"v":"b"}]}}`))
	cases := []struct {
		c    Condition
		want bool
	}{
		{Condition{Field: "data.price", Op: "gt", Value: "1000"}, true},
		{Condition{Field: "data.price", Op: "gt", Value: "2000"}, false},
		{Condition{Field: "data.price", Op: "lt", Value: "2000"}, true},
		{Condition{Field: "data.price", Op: "ge", Value: "1500"}, true},
		{Condition{Field: "data.price", Op: "le", Value: "1499"}, false},
		{Condition{Field: "data.price", Op: "eq", Value: "1500"}, true},
		{Condition{Field: "data.price", Op: "ne", Value: "1500"}, false},
		{Condition{Field: "data.name", Op: "contains", Value: "road"}, true},
		{Condition{Field: "data.name", Op: "contains", Value: "xyz"}, false},
		{Condition{Field: "data.missing", Op: "eq", Value: "1"}, false},
		{Condition{Field: "data.tags[*].v", Op: "eq", Value: "b"}, true},
		{Condition{Field: "data.price", Op: "bogus", Value: "1"}, false},
		{Condition{Field: "][", Op: "eq", Value: "1"}, false},
	}
	for i, tc := range cases {
		if got := tc.c.Eval(doc); got != tc.want {
			t.Errorf("case %d (%+v) = %v, want %v", i, tc.c, got, tc.want)
		}
	}
	var nilCond *Condition
	if !nilCond.Eval(doc) {
		t.Error("nil condition should pass")
	}
}

func TestConditionStringComparison(t *testing.T) {
	doc, _ := jsonpath.Decode([]byte(`{"tier":"premium"}`))
	c := Condition{Field: "tier", Op: "eq", Value: "premium"}
	if !c.Eval(doc) {
		t.Fatal("string eq failed")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := Default(testGraph())
	c.Policies[0].ExpirationTime = Duration(90 * time.Second)
	c.Policies[0].AddHeader = []Header{{Key: "X-Proxy", Value: "prefetch"}}
	c.Policies[0].Condition = &Condition{Field: "price", Op: "gt", Value: "1000"}
	c.DataBudgetBytes = 1 << 20
	b, err := c.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	c2, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	p := c2.Policies[0]
	if time.Duration(p.ExpirationTime) != 90*time.Second {
		t.Fatalf("expiration = %v", p.ExpirationTime)
	}
	if p.Condition == nil || p.Condition.Op != "gt" {
		t.Fatalf("condition lost: %+v", p.Condition)
	}
	if c2.DataBudgetBytes != 1<<20 {
		t.Fatal("budget lost")
	}
	if c2.Policy(p.Hash) == nil {
		t.Fatal("index lost")
	}
}

func TestDurationJSONForms(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"1h30m"`)); err != nil || time.Duration(d) != 90*time.Minute {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`5000000000`)); err != nil || time.Duration(d) != 5*time.Second {
		t.Fatalf("numeric form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Fatal("bad duration accepted")
	}
	if err := d.UnmarshalJSON([]byte(`{}`)); err == nil {
		t.Fatal("object accepted")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestOverloadDefaults(t *testing.T) {
	c := Default(testGraph())
	o := c.EffectiveOverload()
	if o.MaxConcurrentRequests != 256 {
		t.Fatalf("MaxConcurrentRequests = %d", o.MaxConcurrentRequests)
	}
	if time.Duration(o.AdmissionWait) != 100*time.Millisecond {
		t.Fatalf("AdmissionWait = %v", o.AdmissionWait)
	}
	if o.MaxQueue != 4096 {
		t.Fatalf("queue defaults = %+v", o)
	}
	if time.Duration(o.QueueDeadline) != 10*time.Second {
		t.Fatalf("QueueDeadline = %v", o.QueueDeadline)
	}
}

func TestOverloadPartialFillAndNegatives(t *testing.T) {
	c := Default(testGraph())
	// A negative limit or deadline no longer switches its mechanism off:
	// Unmarshal refuses one in a file, and a value set in code defaults.
	c.Overload = &Overload{MaxConcurrentRequests: -1, QueueDeadline: Duration(-1), MaxQueue: 64}
	o := c.EffectiveOverload()
	if o.MaxConcurrentRequests != 256 {
		t.Fatalf("negative MaxConcurrentRequests = %d, want the default 256", o.MaxConcurrentRequests)
	}
	if time.Duration(o.QueueDeadline) != 10*time.Second {
		t.Fatalf("negative QueueDeadline = %v, want the default 10s", o.QueueDeadline)
	}
	if o.MaxQueue != 64 {
		t.Fatalf("MaxQueue = %d", o.MaxQueue)
	}
	// Untouched fields still default.
	if time.Duration(o.AdmissionWait) != 100*time.Millisecond {
		t.Fatalf("AdmissionWait = %v", o.AdmissionWait)
	}
}

func TestOverloadRoundTrip(t *testing.T) {
	c := Default(testGraph())
	c.Overload = &Overload{MaxConcurrentRequests: 32, QueueDeadline: Duration(800 * time.Millisecond)}
	b, err := c.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	c2, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if c2.Overload == nil || c2.Overload.MaxConcurrentRequests != 32 {
		t.Fatalf("overload lost: %+v", c2.Overload)
	}
	if time.Duration(c2.EffectiveOverload().QueueDeadline) != 800*time.Millisecond {
		t.Fatalf("QueueDeadline = %v", c2.EffectiveOverload().QueueDeadline)
	}
}

// removedKeys are the -config keys a version removed, each with a file
// that sets it. The resilience section went whole; the rest are keys of
// sections that stay.
var removedKeys = []struct{ body, key string }{
	// The governor's keys, removed with it.
	{`{"overload":{"target_p95":"800ms"}}`, "target_p95"},
	{`{"overload":{"governor_interval":"250ms"}}`, "governor_interval"},
	{`{"overload":{"governor_min_level":0.05}}`, "governor_min_level"},
	{`{"overload":{"governor_increase":0.1}}`, "governor_increase"},
	{`{"overload":{"governor_decrease":0.5}}`, "governor_decrease"},
	{`{"overload":{"queue_high_water":0.75}}`, "queue_high_water"},
	// Gone once the task carried its depth: the class threshold is fixed.
	{`{"overload":{"deep_depth":2}}`, "deep_depth"},
	// Values no caller varied, now constants beside the code that reads them.
	{`{"resilience":{"retry_attempts":3}}`, "retry_attempts"},
	{`{"resilience":{"retry_base_delay":"1ms"}}`, "retry_base_delay"},
	{`{"resilience":{"retry_max_delay":"5ms"}}`, "retry_max_delay"},
	{`{"resilience":{"attempt_timeout":"1m"}}`, "attempt_timeout"},
	{`{"resilience":{"breaker_failures":2}}`, "breaker_failures"},
	{`{"resilience":{"breaker_open_timeout":"1s"}}`, "breaker_open_timeout"},
	{`{"resilience":{"prefetch_failure_limit":1}}`, "prefetch_failure_limit"},
	{`{"resilience":{"prefetch_backoff_base":"2s"}}`, "prefetch_backoff_base"},
	{`{"resilience":{"prefetch_backoff_max":"15s"}}`, "prefetch_backoff_max"},
	{`{"resilience":{"prefetch_timeout":"150ms"}}`, "prefetch_timeout"},
	{`{"resilience":{}}`, "resilience"},
	{`{"cache":{"shards":8}}`, "shards"},
	{`{"cache":{"sweep_interval":"-1s"}}`, "sweep_interval"},
	{`{"cache":{"max_entries_per_user":64}}`, "max_entries_per_user"},
	{`{"data_budget_window":"1m"}`, "data_budget_window"},
	// Admission control and queue deadlines lost their off switch.
	{`{"overload":{"max_concurrent_requests":-1}}`, "max_concurrent_requests"},
	{`{"overload":{"queue_deadline":"-1s"}}`, "queue_deadline"},
}

// TestUnmarshalRejectsUnknownKeys: the -config file is the one tuning
// surface, so a key no field answers to must fail the load and name itself
// — a typo, or a knob this version no longer has — instead of loading
// cleanly and changing nothing.
func TestUnmarshalRejectsUnknownKeys(t *testing.T) {
	for _, tc := range append([]struct{ body, key string }{
		{`{"overload":{"max_concurent_requests":16}}`, "max_concurent_requests"},
		{`{"cahce":{}}`, "cahce"},
		{`{"policies":[{"hash":"h","prefech":true}]}`, "prefech"},
		// A removed resilience key next to others: every one is named.
		{`{"app":"a","resilience":{"retry_attempts":4,"breaker_failures":2}}`, `"breaker_failures", "retry_attempts"`},
		// An error the decoder meets before the section is the one reported.
		{`{"cahce":{},"resilience":{"retry_attempts":4}}`, "cahce"},
		{`{"global_probability":"x","resilience":{"retry_attempts":4}}`, "global_probability"},
	}, removedKeys...) {
		_, err := Unmarshal([]byte(tc.body))
		if err == nil {
			t.Fatalf("%s: loaded cleanly", tc.body)
		}
		if !strings.Contains(err.Error(), tc.key) {
			t.Fatalf("%s: error %q does not name %q", tc.body, err, tc.key)
		}
	}
	if _, err := Unmarshal([]byte(`{"app":"a"} {"app":"b"}`)); err == nil {
		t.Fatal("trailing data after the configuration object accepted")
	}
	// What Marshal writes, Unmarshal still reads: every section present.
	c := Default(testGraph())
	c.Cache, c.Overload = &Cache{MaxBytes: 8 << 20}, &Overload{MaxQueue: 64}
	c.UserProbability = map[string]float64{"u": 0.5}
	b, err := c.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := Unmarshal(b); err != nil {
		t.Fatalf("Marshal output rejected: %v\n%s", err, b)
	}
}

// configSurface is every key a -config file may set: the paper's §4.4
// policy fields and global knobs, and the sizes and overload bounds callers
// vary. A value no caller varies is a constant beside the code that reads
// it, not a key.
var configSurface = []string{
	"app", "policies",
	"policies.hash", "policies.uri", "policies.expiration_time", "policies.prefetch",
	"policies.probability", "policies.add_header", "policies.condition",
	"global_probability", "user_probability", "data_budget_bytes", "default_expiration",
	"cache", "cache.max_bytes", "cache.per_user_bytes", "cache.disable_shared_tier",
	"overload", "overload.max_concurrent_requests", "overload.admission_wait",
	"overload.queue_deadline", "overload.max_queue",
}

// TestConfigSurface pins the -config keys. A new one has to edit this list,
// and should first show that some caller needs a value other than its
// default.
func TestConfigSurface(t *testing.T) {
	got := jsonKeys(Config{})
	for section, v := range map[string]any{"policies": Policy{}, "cache": Cache{}, "overload": Overload{}} {
		for _, k := range jsonKeys(v) {
			got = append(got, section+"."+k)
		}
	}
	want := append([]string(nil), configSurface...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("config surface changed:\n got  %v\n want %v", got, want)
	}
}

// jsonKeys lists the json names of a struct's exported fields.
func jsonKeys(v any) []string {
	var keys []string
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		if !rt.Field(i).IsExported() {
			continue
		}
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		keys = append(keys, name)
	}
	return keys
}

// readmeConfigRows returns the keys in the first column of README's
// "`<section>` field" tables, by section.
func readmeConfigRows(t *testing.T) map[string][]string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	section := ""
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			section = ""
			continue
		}
		first := strings.TrimSpace(cells[1])
		if name, ok := strings.CutSuffix(first, " field"); ok {
			section = strings.Trim(name, "`")
			rows[section] = []string{}
		} else if section != "" && strings.HasPrefix(first, "`") {
			rows[section] = append(rows[section], strings.Trim(first, "`"))
		}
	}
	return rows
}

// TestReadmeDocumentsEveryConfigKey: README's `-config` field tables are
// the tuning documentation. Every field of the two tuning sections has a
// row.
func TestReadmeDocumentsEveryConfigKey(t *testing.T) {
	rows := readmeConfigRows(t)
	for section, fields := range map[string]any{"cache": Cache{}, "overload": Overload{}} {
		documented, ok := rows[section]
		if !ok {
			t.Fatalf("README has no `%s` field table", section)
		}
		for _, key := range jsonKeys(fields) {
			if !slices.Contains(documented, key) {
				t.Errorf("%s.%s has no row in README's `%s` field table", section, key, section)
			}
		}
	}
}

// TestReadmeConfigRowsNameLiveKeys: every key row of README's field tables
// names a key TestConfigSurface pins, so a folded key cannot stay
// documented.
func TestReadmeConfigRowsNameLiveKeys(t *testing.T) {
	n := 0
	for section, keys := range readmeConfigRows(t) {
		for _, key := range keys {
			n++
			if !slices.Contains(configSurface, section+"."+key) {
				t.Errorf("README's `%s` field table documents %q, which is not a -config key", section, key)
			}
		}
	}
	if n == 0 {
		t.Fatal("README has no config key rows")
	}
}
