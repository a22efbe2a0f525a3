// Package config implements the APPx proxy configuration (§4.4 of the
// paper, Figure 9): per-signature prefetching policies that let the app
// service provider control side-effects and cost without touching the
// automated analysis.
//
// Supported policy fields mirror the paper's seven: hash, uri (readability
// only), expiration_time, prefetch, probability, add_header, and condition.
// The package also carries the global knobs §4.4 and C4 describe: a global
// prefetch probability and a data-usage budget.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"appx/internal/jsonpath"
	"appx/internal/sig"
)

// Duration is a time.Duration that serializes as a human-readable string
// ("90s", "1h30m") like the paper's "1 day" examples.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("config: bad duration %q: %w", s, perr)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("config: bad duration %s", b)
	}
	*d = Duration(n)
	return nil
}

// Header is one add_header entry.
type Header struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Condition gates prefetching on a predecessor response field (§4.4: e.g.
// prefetch only when the "price" field is greater than "1000").
type Condition struct {
	// Field is the JSON path into the predecessor response.
	Field string `json:"field"`
	// Op is one of "gt", "lt", "ge", "le", "eq", "ne", "contains".
	Op string `json:"op"`
	// Value is the comparison operand; numeric comparison is used when both
	// sides parse as numbers.
	Value string `json:"value"`
}

// Eval evaluates the condition against a parsed predecessor response body.
// A missing field fails the condition.
func (c *Condition) Eval(doc any) bool {
	if c == nil {
		return true
	}
	p, err := jsonpath.Parse(c.Field)
	if err != nil {
		return false
	}
	return c.Holds(jsonpath.ExtractStrings(doc, p))
}

// Holds evaluates the condition over the values already extracted at Field:
// it passes when any of them compares true, so none fails it.
func (c *Condition) Holds(vals []string) bool {
	if c == nil {
		return true
	}
	for _, v := range vals {
		if compare(v, c.Op, c.Value) {
			return true
		}
	}
	return false
}

func compare(a, op, b string) bool {
	af, aerr := strconv.ParseFloat(a, 64)
	bf, berr := strconv.ParseFloat(b, 64)
	numeric := aerr == nil && berr == nil
	switch op {
	case "gt":
		if numeric {
			return af > bf
		}
		return a > b
	case "lt":
		if numeric {
			return af < bf
		}
		return a < b
	case "ge":
		if numeric {
			return af >= bf
		}
		return a >= b
	case "le":
		if numeric {
			return af <= bf
		}
		return a <= b
	case "eq":
		return a == b
	case "ne":
		return a != b
	case "contains":
		return strings.Contains(a, b)
	default:
		return false
	}
}

// Policy is one signature's prefetching policy (Figure 9).
type Policy struct {
	Hash           string     `json:"hash"`
	URI            string     `json:"uri"`
	ExpirationTime Duration   `json:"expiration_time"`
	Prefetch       bool       `json:"prefetch"`
	Probability    float64    `json:"probability"`
	AddHeader      []Header   `json:"add_header,omitempty"`
	Condition      *Condition `json:"condition,omitempty"`
}

// Overload tunes the proxy's self-protection: the client-request admission
// gate and the prefetch queue's bounds. Zero values mean "use the default" so
// a config file may set only the fields it cares about. Neither mechanism can
// be switched off: Unmarshal refuses a negative limit or deadline.
type Overload struct {
	// MaxConcurrentRequests bounds concurrently served client requests
	// (default 256); arrivals beyond it wait at most AdmissionWait before
	// being shed with a 503.
	MaxConcurrentRequests int `json:"max_concurrent_requests,omitempty"`
	// AdmissionWait bounds how long an arriving request may wait for an
	// admission slot (default 100ms).
	AdmissionWait Duration `json:"admission_wait,omitempty"`
	// QueueDeadline is how long a queued prefetch stays eligible to run
	// (default 10s); staler tasks are dropped at dispatch.
	QueueDeadline Duration `json:"queue_deadline,omitempty"`
	// MaxQueue bounds the prefetch scheduler queue (default 4096).
	MaxQueue int `json:"max_queue,omitempty"`
}

// Filled returns a copy with defaults applied to zero (or negative) fields.
func (o Overload) Filled() Overload {
	if o.MaxConcurrentRequests <= 0 {
		o.MaxConcurrentRequests = 256
	}
	if o.AdmissionWait <= 0 {
		o.AdmissionWait = Duration(100 * time.Millisecond)
	}
	if o.QueueDeadline <= 0 {
		o.QueueDeadline = Duration(10 * time.Second)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4096
	}
	return o
}

// Cache sizes the proxy's prefetch store (internal/cache). Zero values mean
// "use the default" so a config file may set only the fields it cares about.
type Cache struct {
	// MaxBytes is the global resident-byte budget (default 256 MiB);
	// least-recently-used entries are evicted beyond it. <0 = unlimited.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// PerUserBytes caps one user's resident bytes (default MaxBytes/64, at
	// least 1 MiB). <0 disables the cap.
	PerUserBytes int64 `json:"per_user_bytes,omitempty"`
	// DisableSharedTier turns off cross-user response sharing; every entry
	// is then stored strictly per user, as in the paper's prototype.
	DisableSharedTier bool `json:"disable_shared_tier,omitempty"`
}

// Filled returns a copy with defaults applied to zero fields.
func (c Cache) Filled() Cache {
	if c.MaxBytes == 0 {
		c.MaxBytes = 256 << 20
	}
	if c.PerUserBytes == 0 {
		c.PerUserBytes = c.MaxBytes / 64
		if c.PerUserBytes < 1<<20 {
			c.PerUserBytes = 1 << 20
		}
	}
	return c
}

// Config is the proxy's full configuration.
type Config struct {
	App      string    `json:"app"`
	Policies []*Policy `json:"policies"`

	// GlobalProbability scales every policy's probability (§6.3's knob);
	// 1 when unset.
	GlobalProbability float64 `json:"global_probability,omitempty"`
	// DataBudgetBytes caps prefetch response bytes per hour; 0 = unlimited
	// (C4, the paper's cellular-data budget). Usage resets each hour,
	// matching the per-period intent of a data budget rather than a
	// lifetime cap.
	DataBudgetBytes int64 `json:"data_budget_bytes,omitempty"`
	// DefaultExpiration applies to policies with zero expiration_time.
	DefaultExpiration Duration `json:"default_expiration,omitempty"`
	// UserProbability overrides the global probability for specific users —
	// the §4.4 service-differentiation hook ("deliver better service (i.e.
	// aggressive prefetching) to premium customers"). Keyed by the proxy's
	// user key.
	UserProbability map[string]float64 `json:"user_probability,omitempty"`
	// Cache sizes the prefetch store; nil means all defaults.
	Cache *Cache `json:"cache,omitempty"`
	// Overload tunes admission control and the prefetch queue; nil means
	// all defaults.
	Overload *Overload `json:"overload,omitempty"`

	byHash map[string]*Policy
}

// EffectiveCache resolves the cache sizes with defaults applied.
func (c *Config) EffectiveCache() Cache {
	if c.Cache != nil {
		return c.Cache.Filled()
	}
	return Cache{}.Filled()
}

// EffectiveOverload resolves the overload knobs with defaults applied.
func (c *Config) EffectiveOverload() Overload {
	if c.Overload != nil {
		return c.Overload.Filled()
	}
	return Overload{}.Filled()
}

// UserScale returns the probability multiplier for a user (1 when no tier
// is configured).
func (c *Config) UserScale(user string) float64 {
	if c.UserProbability == nil {
		return 1
	}
	if v, ok := c.UserProbability[user]; ok {
		if v < 0 {
			return 0
		}
		return v
	}
	return 1
}

// Default derives the initial configuration from a signature graph: every
// prefetchable signature enabled with probability 1 and a conservative
// 5-minute expiry (the verification phase refines expiries from its logs).
func Default(g *sig.Graph) *Config {
	c := &Config{App: g.App, GlobalProbability: 1, DefaultExpiration: Duration(5 * time.Minute)}
	for _, id := range g.Prefetchable() {
		s := g.Sig(id)
		if s == nil {
			continue
		}
		c.Policies = append(c.Policies, &Policy{
			Hash:        s.Hash(),
			URI:         s.URI.String(),
			Prefetch:    true,
			Probability: 1,
		})
	}
	c.reindex()
	return c
}

func (c *Config) reindex() {
	c.byHash = make(map[string]*Policy, len(c.Policies))
	for _, p := range c.Policies {
		c.byHash[p.Hash] = p
	}
}

// Policy returns the policy for a signature hash, or nil.
func (c *Config) Policy(hash string) *Policy {
	if c.byHash == nil {
		c.reindex()
	}
	return c.byHash[hash]
}

// SetPolicy inserts or replaces a policy.
func (c *Config) SetPolicy(p *Policy) {
	if c.byHash == nil {
		c.reindex()
	}
	if old, ok := c.byHash[p.Hash]; ok {
		*old = *p
		return
	}
	c.Policies = append(c.Policies, p)
	c.byHash[p.Hash] = p
}

// Expiration resolves the effective expiry for a policy.
func (c *Config) Expiration(p *Policy) time.Duration {
	if p != nil && p.ExpirationTime > 0 {
		return time.Duration(p.ExpirationTime)
	}
	if c.DefaultExpiration > 0 {
		return time.Duration(c.DefaultExpiration)
	}
	return 5 * time.Minute
}

// EffectiveProbability combines a policy's probability with the global
// scaling knob.
func (c *Config) EffectiveProbability(p *Policy) float64 {
	gp := c.GlobalProbability
	if gp == 0 {
		gp = 1
	}
	pp := 1.0
	if p != nil {
		pp = p.Probability
		if pp == 0 && !p.Prefetch {
			pp = 0
		} else if pp == 0 {
			pp = 1
		}
	}
	v := gp * pp
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Marshal serializes the configuration.
func (c *Config) Marshal() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Unmarshal parses a configuration. A key no field answers to — a typo, or
// a knob a later version removed — is an error naming the key, not a
// setting silently ignored; so is a negative admission limit or queue
// deadline, which once switched the mechanism off.
func Unmarshal(b []byte) (*Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: %w", foldedKeys(b, err))
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("config: trailing data after the configuration object")
	}
	if o := c.Overload; o != nil {
		if o.MaxConcurrentRequests < 0 {
			return nil, errors.New("config: overload.max_concurrent_requests is negative; admission control has no off switch")
		}
		if o.QueueDeadline < 0 {
			return nil, errors.New("config: overload.queue_deadline is negative; queued prefetches always expire")
		}
	}
	c.reindex()
	return &c, nil
}

// foldedKeys names the keys of the removed "resilience" section when that
// section is what the decoder refused: alone it would name only the
// section. Any other error is returned as it is, so a typo or a type error
// elsewhere stays the one reported. Every one of the section's values
// (retries, breaker, prefetch backoff and deadline) is a constant of the
// proxy now.
func foldedKeys(b []byte, err error) error {
	if err.Error() != `json: unknown field "resilience"` {
		return err
	}
	var probe struct {
		Resilience map[string]json.RawMessage `json:"resilience"`
	}
	if json.Unmarshal(b, &probe) != nil || probe.Resilience == nil {
		return err
	}
	keys := make([]string, 0, len(probe.Resilience))
	for k := range probe.Resilience {
		keys = append(keys, strconv.Quote(k))
	}
	sort.Strings(keys)
	return fmt.Errorf("json: unknown field \"resilience\" (removed with its keys, whose values are fixed: %s)", strings.Join(keys, ", "))
}
