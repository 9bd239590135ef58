package campaign

import (
	"testing"

	"extrareq/internal/workload"
)

// FuzzValidateEntry feeds arbitrary bytes — as a PUT /v1/points peer or a
// damaged disk file could supply them — to ValidateEntry and the two
// decoders behind it. No input may panic; bytes ValidateEntry accepts must
// decode under the key that addressed them and no other, and the returned
// EntryKind must name the decoder that accepted them.
func FuzzValidateEntry(f *testing.F) {
	req := Request{App: testApp(f), Grid: testGrid()}
	k := ComputeKey(req)
	other := ComputePointKey(req, 2, 64)
	app := req.App.Name()

	sample := workload.Sample{P: 2, N: 64, Values: map[string]float64{"flop": 128, "bytes_used": 4096}}
	ok := workload.ConfigOutcome{P: 2, N: 64, Attempts: 1}
	lost := workload.ConfigOutcome{P: 4, N: 64, Attempts: 3, Quarantined: true,
		Errors: []string{"rank 1 killed", "rank 0 killed", "rank 3 killed"}}
	c := &workload.Campaign{App: app, Grid: req.Grid,
		Samples: []workload.Sample{sample}}
	rep := &workload.CampaignReport{App: app, Configs: 2, ExtraRuns: 2,
		Quarantined: []workload.ConfigOutcome{lost}, Outcomes: []workload.ConfigOutcome{ok, lost}}

	var seeds [][]byte
	for _, enc := range []func(Key) ([]byte, error){
		func(key Key) ([]byte, error) { return encodePoint(key, app, sample, ok) },
		func(key Key) ([]byte, error) { return encodePoint(key, app, workload.Sample{}, lost) },
		func(key Key) ([]byte, error) { return encode(key, app, c, rep) },
	} {
		for _, key := range []Key{k, other} {
			data, err := enc(key)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, data)
		}
	}
	for _, data := range seeds {
		f.Add(data)
		for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
			f.Add(data[:n])
		}
	}
	f.Add([]byte(`{"version":0}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, err := ValidateEntry(k, data)
		_, _, perr := decodePoint(k, data)
		_, _, cerr := decode(k, data)
		if err != nil {
			if perr == nil || cerr == nil {
				t.Fatalf("ValidateEntry rejected bytes a decoder accepts (point err %v, campaign err %v): %v", perr, cerr, err)
			}
			return
		}
		switch kind {
		case PointEntry:
			if perr != nil {
				t.Fatalf("ValidateEntry says point entry but decodePoint fails: %v", perr)
			}
		case CampaignEntry:
			if perr == nil {
				t.Fatal("ValidateEntry says campaign entry but decodePoint accepts the bytes")
			}
			if cerr != nil {
				t.Fatalf("ValidateEntry says campaign entry but decode fails: %v", cerr)
			}
		default:
			t.Fatalf("ValidateEntry returned unknown kind %d", kind)
		}
		if _, err := ValidateEntry(other, data); err == nil {
			t.Fatalf("entry accepted under %s also validates under %s", k, other)
		}
	})
}
