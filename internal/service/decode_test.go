package service

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jetstream"
)

// referenceDecode is the decode the scanner replaced on the batch endpoint:
// encoding/json, strict, into the wire type, then lowered.
func referenceDecode(body []byte) (jetstream.Batch, error) {
	var wb WireBatch
	if err := decodeStrict(bytes.NewReader(body), &wb); err != nil {
		return jetstream.Batch{}, err
	}
	return wb.Batch(), nil
}

// sameBatch compares two batches bit for bit: nil-ness, lengths, ids, and
// weights by their IEEE bits (so -0 and 0 differ).
func sameBatch(a, b jetstream.Batch) error {
	for _, p := range []struct {
		name string
		x, y []jetstream.Edge
	}{{"inserts", a.Inserts, b.Inserts}, {"deletes", a.Deletes, b.Deletes}} {
		if (p.x == nil) != (p.y == nil) || len(p.x) != len(p.y) {
			return fmt.Errorf("%s: %d edges (nil %v) vs %d (nil %v)", p.name, len(p.x), p.x == nil, len(p.y), p.y == nil)
		}
		for i := range p.x {
			if p.x[i].Src != p.y[i].Src || p.x[i].Dst != p.y[i].Dst ||
				math.Float64bits(p.x[i].Weight) != math.Float64bits(p.y[i].Weight) {
				return fmt.Errorf("%s[%d]: %+v vs %+v", p.name, i, p.x[i], p.y[i])
			}
		}
	}
	return nil
}

// benchBody marshals a batch the way the benchmark's load generator does:
// inserts with full-precision weights, deletes with the weight left out.
func benchBody(t testing.TB, inserts, deletes int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var wb WireBatch
	for i := 0; i < inserts; i++ {
		wb.Inserts = append(wb.Inserts, WireEdge{Src: rng.Uint32() % 100000, Dst: rng.Uint32() % 100000, Weight: 1 + 63*rng.Float64()})
	}
	for i := 0; i < deletes; i++ {
		wb.Deletes = append(wb.Deletes, WireEdge{Src: rng.Uint32() % 100000, Dst: rng.Uint32() % 100000})
	}
	return mustMarshal(t, wb)
}

// decodeCorners are bodies picked for encoding/json's less obvious rulings.
var decodeCorners = []string{
	`{}`, `null`, ` null `, `nullx`, `null x`, `{} {}`, `{}]`, `{"inserts":[]} x`, ``, ` `, `[]`, `1`, `"x"`, `{`, `{"inserts"`,
	`{"inserts":null,"deletes":[]}`,
	`{"inserts":[null,{"src":1},null]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":-0}]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":1e2},{"src":3,"dst":4,"weight":2.5E-3},{"src":5,"dst":6,"weight":-1.25e+1}]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":1e999}]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":1e-999}]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":01}]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":1.}]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":.5}]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":+1}]}`,
	`{"inserts":[{"src":1,"dst":2,"weight":"1"}]}`,
	`{"inserts":[{"src":null,"dst":null,"weight":null}]}`,
	`{"inserts":[{"src":4294967295,"dst":0}]}`,
	`{"inserts":[{"src":4294967296,"dst":0}]}`,
	`{"inserts":[{"src":99999999999999999999999999,"dst":0}]}`,
	`{"inserts":[{"src":-0}]}`, `{"inserts":[{"src":-1}]}`, `{"inserts":[{"src":1.0}]}`, `{"inserts":[{"src":1e2}]}`,
	`{"inserts":[{"src":00}]}`, `{"inserts":[{"src":01}]}`, `{"inserts":[{"src":true}]}`, `{"inserts":[{"src":[1]}]}`,
	`{"inserts":[{"src":1,"src":2,"weight":3,"weight":null}]}`,
	`{"inserts":[{"src":1,"weight":5},{"src":7}],"inserts":[{"dst":2}]}`,
	`{"inserts":[{"src":1},{"src":2},{"src":3}],"inserts":[{}],"inserts":[null,null,{"dst":9}]}`,
	`{"inserts":[{"src":1},{"src":2}],"inserts":[],"inserts":[{"dst":3},null]}`,
	`{"inserts":[{"src":1},{"src":2}],"inserts":null,"inserts":[{"dst":3},null]}`,
	`{"INSERTS":[{"SRC":1,"Dst":2,"wEiGhT":3}],"Deletes":[{"src":4}]}`,
	"{\"inſertſ\":[{\"ſrc\":1,\"dſt\":2}]}", // ſ folds to s
	"{\"deletes\":[{\"src\":1,\"Key\":2}]}", // K (Kelvin) folds to k, but "key" is no field
	`{"inserts":[{"src":1,"dst":2,"weight":1.5}]}`,
	`{"inserts ":[]}`, `{"inser\ts":[]}`, `{"inserts\x":[]}`, "{\"in\xffserts\":[]}", "{\"inserts\x01\":[]}",
	`{"inserts":[{"src":1,"extra":2}]}`, `{"extra":[]}`, `{"inserts":[{"src":1,"dst":{"a":[1,{"b":null}]}}]}`,
	`{"inserts":[1]}`, `{"inserts":[[]]}`, `{"inserts":{}}`, `{"inserts":"[]"}`, `{"inserts":[{"src":1},]}`, `{"inserts":[,]}`,
	`{"inserts":[{"src":1,}]}`, `{,}`, `{"inserts":[]"deletes":[]}`, `{"inserts" []}`, `{"inserts":[{"src" 1}]}`,
	"\ufeff{}", "{}\x00", "\x00{}", "{\"inserts\":[\x00]}", "\t\r\n {\t\r\n \"inserts\"\t\r\n :\t\r\n [\t\r\n {\t\r\n \"src\"\t\r\n :\t\r\n 1\t\r\n }\t\r\n ]\t\r\n }\t\r\n ",
	`{"inserts":[{"src":1,"dst":2,"weight":1}]`, `{"inserts":[{"src":1,"dst":2,"weight":1}}`, `{"inserts":[{"src":1 "dst":2}]}`,
	`{"inserts":nul}`, `{"inserts":nullx}`, `{"inserts":[nul]}`, `{"inserts":[{"src":nul}]}`, `{"inserts":[{"weight":-}]}`, `{"inserts":[{"weight":1e}]}`,
}

// FuzzDecodeBatch holds the scanner against the decode it replaced: any
// bytes must be accepted by both or rejected by both, and an accepted body
// must lower to the bit-identical Batch.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(benchBody(f, 32, 0, 1))     // small-batch
	f.Add(benchBody(f, 1024, 0, 2))   // durable-bulk
	f.Add(benchBody(f, 512, 512, 3))  // delete-window
	f.Add(benchBody(f, 3, 2, 4)[:40]) // cut mid-edge
	f.Add(append(benchBody(f, 2, 1, 5), "  \n{}"...))
	for _, c := range decodeCorners {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, refErr := referenceDecode(body)
		got, err := decodeBatch(body)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("acceptance diverges: scanner %v, encoding/json %v\nbody: %q", err, refErr, body)
		}
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection %v does not wrap ErrInvalid", err)
			}
			return
		}
		if err := sameBatch(got, want); err != nil {
			t.Fatalf("batches diverge: %v\nbody: %q", err, body)
		}
	})
}

// TestDecodeBatchAllocations pins the decode at the two edge slices.
func TestDecodeBatchAllocations(t *testing.T) {
	body := benchBody(t, 512, 512, 7)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeBatch(body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("decodeBatch allocates %v times for a body with inserts and deletes, want 2", allocs)
	}
}

// BenchmarkDecodeBatch compares the scanner with the encoding/json decode it
// replaced on the benchmark's small-batch and durable-bulk body sizes.
func BenchmarkDecodeBatch(b *testing.B) {
	for _, n := range []int{32, 1024} {
		body := benchBody(b, n, 0, int64(n))
		for _, arm := range []struct {
			name   string
			decode func([]byte) (jetstream.Batch, error)
		}{{"scan", decodeBatch}, {"json", referenceDecode}} {
			b.Run(fmt.Sprintf("%s/%d", arm.name, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					if _, err := arm.decode(body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
