// Package persist gives the proxy crash-safe durability: a file-backed
// cache tier below internal/cache and versioned snapshots of the learned
// soft state (signature graph fingerprint, learner exemplars, per-host
// breaker and per-signature backoff state).
//
// Every restart of the seed proxy threw away the prefetch cache, the
// learned run-time values, and the resilience state — at production scale a
// routine deploy becomes an origin flash crowd, exactly the overload the
// admission layer exists to prevent. This package lets a
// restarted proxy resume near its trained hit ratio instead of cold.
//
// Crash-safety invariants:
//
//  1. Every on-disk artifact is a checksummed, versioned envelope; a torn
//     or corrupt file is detected at read time and reported as a
//     *DecodeError, never served and never a panic.
//  2. Writes are atomic: payloads land in a temp file in the same
//     directory and are renamed into place, so readers only ever observe
//     the previous complete file or the new complete file.
//  3. Recovery degrades, never crashes: corrupt snapshot → previous
//     snapshot → cold start. A cold start is always correct (the proxy
//     re-learns); restore is purely an optimization.
package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Format constants. The envelope is:
//
//	[8]byte  magic (artifact kind + format generation)
//	uint32   version (big endian)
//	uint64   payload length (big endian)
//	[32]byte SHA-256 of payload
//	payload
const (
	// Version is the current payload schema version. Decoders reject
	// versions they do not understand (forward compatibility is a new
	// magic/version, never a silent reinterpretation).
	Version = 1

	headerLen = 8 + 4 + 8 + sha256.Size

	// maxPayload bounds decoded payloads so a corrupt length field cannot
	// drive a multi-gigabyte allocation.
	maxPayload = 1 << 30
)

// Magic values discriminate artifact kinds so a cache entry file can never
// be mistaken for a snapshot.
var (
	MagicSnapshot = [8]byte{'A', 'P', 'P', 'X', 'S', 'N', 'P', '1'}
	MagicEntry    = [8]byte{'A', 'P', 'P', 'X', 'E', 'N', 'T', '1'}
)

// DecodeError reports a malformed on-disk artifact. All decode failures —
// short file, bad magic, unsupported version, length mismatch, checksum
// mismatch, unparseable payload — are wrapped in it, so callers can treat
// "is this recoverable corruption?" as one errors.As check. Recovery is
// always: discard the artifact and proceed cold.
type DecodeError struct {
	// Reason is a short machine-stable cause: "short-header", "bad-magic",
	// "bad-version", "bad-length", "bad-checksum", "bad-payload".
	Reason string
	Err    error
}

func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("persist: corrupt artifact (%s): %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("persist: corrupt artifact (%s)", e.Reason)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// decodeErr builds a DecodeError.
func decodeErr(reason string, err error) error {
	return &DecodeError{Reason: reason, Err: err}
}

// IsCorrupt reports whether err (anywhere in its chain) is a DecodeError —
// i.e. recoverable on-disk corruption rather than an environmental failure.
func IsCorrupt(err error) bool {
	var de *DecodeError
	return errors.As(err, &de)
}

// Encode wraps payload in the checksummed envelope for the given magic.
func Encode(magic [8]byte, payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out[0:8], magic[:])
	binary.BigEndian.PutUint32(out[8:12], Version)
	binary.BigEndian.PutUint64(out[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[20:20+sha256.Size], sum[:])
	copy(out[headerLen:], payload)
	return out
}

// Decode validates the envelope and returns the payload. Every failure is a
// *DecodeError; Decode never panics on any input.
func Decode(magic [8]byte, data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, decodeErr("short-header", fmt.Errorf("%d bytes, want at least %d", len(data), headerLen))
	}
	if string(data[0:8]) != string(magic[:]) {
		return nil, decodeErr("bad-magic", fmt.Errorf("got %q", data[0:8]))
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != Version {
		return nil, decodeErr("bad-version", fmt.Errorf("version %d, support %d", v, Version))
	}
	n := binary.BigEndian.Uint64(data[12:20])
	if n > maxPayload || int(n) != len(data)-headerLen {
		return nil, decodeErr("bad-length", fmt.Errorf("declared %d, have %d", n, len(data)-headerLen))
	}
	payload := data[headerLen:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[20:20+sha256.Size]) {
		return nil, decodeErr("bad-checksum", nil)
	}
	return payload, nil
}

// writeAtomic writes data to path via a same-directory temp file and
// rename, so a crash at any instant leaves either the old complete file or
// the new complete file — never a half-written one. An optional fault
// injector perturbs the write for hostile-recovery tests.
func writeAtomic(path string, data []byte, f *Faults) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// On any failure below, remove the temp file; the target is untouched.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if f != nil {
		var ferr error
		data, ferr = f.perturb(data)
		if ferr != nil {
			return fail(ferr)
		}
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
