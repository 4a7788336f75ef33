package tensor

import "testing"

func TestWorkspaceReusesStorage(t *testing.T) {
	var ws Workspace
	a := ws.Get2D(0, 4, 8)
	if a.Dim(0) != 4 || a.Dim(1) != 8 || a.Len() != 32 {
		t.Fatalf("Get2D shape = %v", a.Shape())
	}
	a.Data()[0] = 42

	// Shrinking reuses the same tensor and backing array.
	b := ws.Get2D(0, 2, 8)
	if b != a {
		t.Fatal("same slot returned a different tensor")
	}
	if b.Len() != 16 {
		t.Fatalf("shrunk len = %d", b.Len())
	}
	if b.Data()[0] != 42 {
		t.Fatal("shrink did not preserve backing array")
	}

	// Growing within the high-water capacity also reuses storage.
	c := ws.Get(0, 4, 8)
	if &c.Data()[0] != &a.Data()[0] {
		t.Fatal("regrow within capacity reallocated")
	}

	// Distinct slots are distinct tensors.
	d := ws.Get2D(1, 1, 5)
	if d == a {
		t.Fatal("distinct slots share a tensor")
	}
}

func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	var ws Workspace
	// Warm up: reach the high-water capacity for both slots.
	ws.Get2D(0, 8, 8)
	ws.Get4D(1, 2, 3, 4, 5)
	allocs := testing.AllocsPerRun(100, func() {
		ws.Get2D(0, 8, 8)
		ws.Get4D(1, 2, 3, 4, 5)
		ws.Get3D(1, 2, 3, 4) // reshape below high water
		ws.GetLike(0, ws.Get2D(0, 4, 4))
	})
	if allocs != 0 {
		t.Fatalf("steady-state workspace Get allocates %v times", allocs)
	}
}

func TestWorkspaceNegativeDimPanics(t *testing.T) {
	var ws Workspace
	for name, f := range map[string]func(){
		"Get":   func() { ws.Get(0, 2, -1) },
		"Get2D": func() { ws.Get2D(0, -2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with negative dim did not panic", name)
				}
			}()
			f()
		}()
	}
}
