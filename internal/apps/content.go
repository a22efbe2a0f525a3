package apps

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// ids returns n deterministic hex item identifiers for a namespace. The same
// namespace always yields the same ids, so replayed traces and prefetched
// requests agree with live server state.
func ids(namespace string, n int) []string {
	out := make([]string, n)
	h := uint64(1469598103934665603) // FNV offset basis
	for _, c := range []byte(namespace) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := range out {
		h = h*6364136223846793005 + 1442695040888963407
		out[i] = fmt.Sprintf("%06x", (h>>20)&0xffffff)
	}
	return out
}

// imageBytes produces a deterministic pseudo-image payload of the given size.
// Like ids it keeps 64-bit state — FNV-1a over the seed, then an LCG whose top
// byte is emitted — so images of different items differ as real ones do.
func imageBytes(seed string, size int) []byte {
	b := make([]byte, size)
	h := uint64(1469598103934665603) // FNV offset basis
	for _, c := range []byte(seed) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := range b {
		h = h*6364136223846793005 + 1442695040888963407
		b[i] = byte(h >> 56)
	}
	return b
}

// writeJSON writes v as an application/json response.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// writeImage writes an image payload.
func writeImage(w http.ResponseWriter, seed string, size int) {
	w.Header().Set("Content-Type", "image/jpeg")
	w.WriteHeader(http.StatusOK)
	w.Write(imageBytes(seed, size))
}

// writeErr writes a JSON error with the given status.
func writeErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": msg})
}

// pad returns filler text of roughly n bytes, to give JSON payloads
// realistic sizes.
func pad(n int) string {
	return strings.Repeat("loremipsum", n/10+1)[:n]
}

// hostOf strips an optional port from a request host.
func hostOf(r *http.Request) string {
	h := r.Host
	if i := strings.LastIndexByte(h, ':'); i > 0 && !strings.Contains(h[i+1:], "]") {
		return h[:i]
	}
	return h
}
