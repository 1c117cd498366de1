package core

import (
	"bytes"
	"reflect"
	"testing"

	"cpr/internal/synth"
)

// FuzzDecodeResult checks the design-level block codec: a block either
// fails to decode, or the decoded result re-encodes to canonical bytes
// that decode to the same result. The seeds are the block of a real run,
// the same run in the refused version-1 format, and malformed blocks.
func FuzzDecodeResult(f *testing.F) {
	d := mustGenerate(f, synth.Spec{Name: "fuzzres", Nets: 20, Width: 60, Height: 20, Seed: 5})
	res, err := Run(d, Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	block, err := EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	v1 := bytes.Replace(block, []byte(`{"v":2,`), []byte(`{"v":1,`), 1)
	v1 = bytes.Replace(v1, []byte(`"TotalConflicts":`), []byte(`"Elapsed":1500000,"TotalConflicts":`), 1)
	if _, err := DecodeResult(v1); err == nil {
		f.Fatal("a version-1 block decoded")
	}
	for _, seed := range [][]byte{
		block, v1, nil, []byte("null"), []byte(`{"v":2}`), []byte(`{"v":2,"mode":7,"metrics":{"RoutPct":1e308}}`),
		[]byte(`{"v":2,"pin_opt":{"Panels":[null]},"artifacts":{"Panels":[null],"Routes":[{}]}}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		canon, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("re-encoding a decoded result failed: %v", err)
		}
		r2, err := DecodeResult(canon)
		if err != nil {
			t.Fatalf("canonical block does not decode: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("canonical block decodes to a different result:\n%s", canon)
		}
		if again, err := EncodeResult(r2); err != nil || !bytes.Equal(canon, again) {
			t.Fatalf("encoding is not canonical (err %v):\n%s\n%s", err, canon, again)
		}
	})
}
