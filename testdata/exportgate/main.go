// Command fixture is the program the export gate's own test runs the gate
// over: it uses some of package lib's exports and leaves the rest.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	w := lib.New()
	w.Run()
	if f, ok := any(w).(interface{ Flush() error }); ok {
		fmt.Println(f.Flush())
	}
	fmt.Println(w.Live)
}
