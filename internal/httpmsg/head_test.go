package httpmsg

import "testing"

// TestCheckHeadRefusesWhatTransportRefuses: a method, header name or header
// value http.Transport would refuse is an error; Write alone would have
// sent a value's line break as a space.
func TestCheckHeadRefusesWhatTransportRefuses(t *testing.T) {
	for _, r := range []*Request{
		{Method: "BAD METHOD"},
		{Method: "GET", Header: []Field{{Key: "X-A", Value: "1\n2"}}},
		{Method: "GET", Header: []Field{{Key: "X-A", Value: "nul\x00"}}},
		{Method: "GET", Header: []Field{{Key: "X A", Value: "1"}}},
		{Method: "GET", Header: []Field{{Key: "", Value: "1"}}},
		{Method: "GET", Header: []Field{{Key: "X-Ä", Value: "1"}}},
	} {
		if err := r.CheckHead(); err == nil {
			t.Errorf("%q %v: accepted", r.Method, r.Header)
		}
	}
	ok := &Request{Method: "get", Header: []Field{{Key: "X-A", Value: "tab\there, obs-text \xff"}}}
	if err := ok.CheckHead(); err != nil {
		t.Errorf("valid head refused: %v", err)
	}
}
