package config_test

import (
	"bytes"
	"testing"

	"appx/internal/apps"
	"appx/internal/config"
	"appx/internal/static"
)

// FuzzUnmarshal feeds arbitrary bytes to the strict decoder. Each input is
// either rejected, or it decodes to a config that Marshal → Unmarshal carries
// over unchanged — it marshals to the same bytes again and resolves to the
// same effective settings — and whose Effective*() views do not panic. The
// corpus starts from every built-in app's default config, the misspelt and
// removed keys the decoder must reject, and the negative limits it refuses.
func FuzzUnmarshal(f *testing.F) {
	for _, a := range apps.All() {
		g, err := static.Analyze(a.APK.Program, a.Name, a.APK.Entries(), static.Options{Features: static.AllFeatures()})
		if err != nil {
			f.Fatalf("%s: %v", a.Name, err)
		}
		b, err := config.Default(g).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, body := range []string{
		`{"overload":{"max_concurent_requests":16}}`,
		`{"resilience":{"retry_attempt":3}}`,
		`{"cahce":{}}`,
		`{"policies":[{"hash":"h","prefech":true}]}`,
		`{"overload":{"target_p95":"800ms"}}`,
		`{"overload":{"governor_interval":"250ms"}}`,
		`{"overload":{"queue_high_water":0.75}}`,
		`{"overload":{"deep_depth":2}}`,
		`{"app":"a"} {"app":"b"}`,
		`{"resilience":{"retry_attempts":4,"breaker_failures":2}}`,
		`{"resilience":{"prefetch_timeout":"150ms"}}`,
		`{"cache":{"shards":8,"sweep_interval":"-1s"}}`,
		`{"cache":{"max_entries_per_user":64}}`,
		`{"data_budget_window":"1m"}`,
		`{"overload":{"max_concurrent_requests":-1}}`,
		`{"overload":{"queue_deadline":"-1s"}}`,
		`{"overload":{"queue_deadline":-5,"max_queue":-3}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := config.Unmarshal(in)
		if err != nil {
			return
		}
		b, err := c.Marshal()
		if err != nil {
			t.Fatalf("decoded config does not marshal: %v", err)
		}
		back, err := config.Unmarshal(b)
		if err != nil {
			t.Fatalf("Marshal output rejected: %v\n%s", err, b)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, again) {
			t.Fatalf("round trip changed the config:\n%s\nbecame\n%s", b, again)
		}
		if c.EffectiveCache() != back.EffectiveCache() ||
			c.EffectiveOverload() != back.EffectiveOverload() {
			t.Fatalf("round trip changed the effective settings of\n%s", b)
		}
		for _, p := range c.Policies {
			was, now := c.Policy(p.Hash), back.Policy(p.Hash)
			if c.EffectiveProbability(was) != back.EffectiveProbability(now) || c.Expiration(was) != back.Expiration(now) {
				t.Fatalf("policy %q: effective probability or expiry changed in the round trip", p.Hash)
			}
		}
	})
}
