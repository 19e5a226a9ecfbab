package serve

import (
	"math"
	"testing"
)

// FuzzReloadImage throws arbitrary bytes at the reload path. The
// contract under fuzzing: ReloadImage never panics, never replaces the
// live image with an invalid one (a rejected reload leaves the
// generation untouched), and the server keeps answering queries
// correctly either way. Valid images advance the generation by one.
func FuzzReloadImage(f *testing.F) {
	fl := testFlat(f)
	valid := fl.Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("FLAT"))

	s, err := New(Config{Flat: fl})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The server persists across iterations, so an accepted reload (a
		// mutated-but-decodable image) legitimately changes the serving
		// image; all invariants compare against the state at the top of
		// THIS iteration.
		before := s.img.Load()
		wantOnReject := before.flat.Query(0, 17)

		// The fuzzer reuses data after this iteration; ReloadImage keeps
		// nothing of its buffer, so data is handed over as is.
		res, err := s.ReloadImage(data, "fuzz")
		after := s.img.Load()
		if err != nil {
			// Rejected: the live image must be untouched, same pointer,
			// same generation, same answers.
			if after != before || after.gen != before.gen {
				t.Fatalf("rejected reload replaced the image: generation %d -> %d", before.gen, after.gen)
			}
			if d := after.flat.Query(0, 17); math.Float64bits(d) != math.Float64bits(wantOnReject) {
				t.Fatalf("rejected reload changed answers: got %v, want %v", d, wantOnReject)
			}
		} else {
			if after.gen != before.gen+1 || res.Generation != after.gen {
				t.Fatalf("accepted reload: generation %d -> %d, result %+v", before.gen, after.gen, res)
			}
		}
		// Whatever image is current must answer without panicking — a
		// fuzzer-built valid image may answer anything finite-or-Inf,
		// including on out-of-range vertices.
		_ = after.flat.Query(0, 17)
		_ = after.flat.Query(-1, 1<<30)
	})
}
