package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// verifier checks op outputs by digest. A key with a pinned digest must
// reproduce the pin; any other key must reproduce its own first execution
// in this run. Every mismatch is one failed op.
type verifier struct {
	want   map[string]string
	failed int
}

func newVerifier(pins map[string]string) *verifier {
	v := &verifier{want: map[string]string{}}
	for k, d := range pins {
		v.want[k] = d
	}
	return v
}

// check reports whether got is the expected digest for key, recording it
// as the expectation when key has none yet.
func (v *verifier) check(key, got string) bool {
	want, ok := v.want[key]
	if !ok {
		v.want[key] = got
		return true
	}
	if want != got {
		v.failed++
		return false
	}
	return true
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}
