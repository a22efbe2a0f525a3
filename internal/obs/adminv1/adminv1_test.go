package adminv1

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestStatsResponseRoundTrip: a stats body survives encoding and decoding
// whole, the miss-reason block's totals sit beside its per-signature map
// (the embedded counts are flattened), and a body from an older proxy,
// without the newer blocks, decodes to their zero values.
func TestStatsResponseRoundTrip(t *testing.T) {
	in := StatsResponse{
		Hits: 7, Misses: 3, Prefetches: 12, HitRatio: 0.7,
		Sched:  Sched{Promoted: 4, Issued: SchedIssued{Miss: 30, Hit: 9, Chain: 60}},
		Policy: PolicyEntry{NoRoomSkips: 17},
		Cache: Cache{ResidentBytes: 8 << 20, BodyBytes: 1 << 20, SharedBodies: 12, Signatures: map[string]CacheSignature{
			"t:img#0": {Stored: 180, Hits: 12, Evicted: 150, EvictedUnused: 140, EvictedUnusedBytes: 44100000},
		}},
		Requests: Requests{Total: 10, Outcomes: map[string]OutcomeStats{"origin": {Count: 3, P50Ms: 80}},
			StageP95Ms: map[string]float64{"origin": 110}},
		MissReasons: MissReasons{
			MissCounts: MissCounts{Unpredicted: 145, NoExemplar: 68, Queued: 55, Other: 9},
			Signatures: map[string]MissCounts{
				"t:feed#0":   {Unpredicted: 145},
				"t:detail#0": {NoExemplar: 68, Queued: 55, Other: 9},
			},
		},
		Borrowed: Borrowed{Issued: 300, Used: 120, Rejected: 2},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out StatsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip changed the body:\n got %+v\nwant %+v", out, in)
	}
	for _, want := range []string{
		`"missReasons":{"unpredicted":145,"noExemplar":68,"queued":55,"other":9,"signatures":{`,
		`"borrowed":{"issued":300,"used":120,"rejected":2}`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("encoded body lacks %s:\n%s", want, raw)
		}
	}

	var old StatsResponse
	if err := json.Unmarshal([]byte(`{"hits":7,"misses":3,"policy":{"configured":"static"}}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.Hits != 7 ||
		!reflect.DeepEqual(old.MissReasons, MissReasons{}) || old.Borrowed != (Borrowed{}) {
		t.Fatalf("an older body decoded to %+v", old)
	}
}
