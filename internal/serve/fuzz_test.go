package serve

import (
	"encoding/json"
	"testing"
)

// FuzzSubmitRequest feeds arbitrary bytes, as a client could POST them to
// /v1/campaigns, through the handler's decode and buildRequest. No input
// may panic, and a request buildRequest accepts must name the app it was
// given, carry a grid that passes validation, and carry a fault plan
// exactly when the body asked for one.
func FuzzSubmitRequest(f *testing.F) {
	for _, body := range []string{
		submitBody(1),
		submitBody(5),
		submitBody(11),
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":9},"wait":false}`,
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":1},"wait":false}`,
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64],"seed":1},"timeout_seconds":0.05}`,
		`{"app":"NoSuchApp","grid":{"procs":[2],"ns":[64]}}`,
		`{"app":"Kripke","grid":{"procs":[],"ns":[64]}}`,
		`{"app":"Kripke","grid":{"procs":[2],"ns":[64]},"faults":"gibberish"}`,
		`{"app":`,
	} {
		f.Add([]byte(body))
	}
	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sub SubmitRequest
		if err := json.Unmarshal(body, &sub); err != nil {
			return
		}
		req, err := s.buildRequest(sub)
		if err != nil {
			return
		}
		if req.App == nil || req.App.Name() != sub.App {
			t.Fatalf("accepted app %q as %v", sub.App, req.App)
		}
		if err := req.Grid.Validate(); err != nil {
			t.Fatalf("accepted grid %+v fails validation: %v", req.Grid, err)
		}
		if (req.Faults != nil) != (sub.Faults != "") {
			t.Fatalf("faults %q produced plan %v", sub.Faults, req.Faults)
		}
	})
}
