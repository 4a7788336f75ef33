// Command benchmark is a second module that uses what the first leaves.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.New().Bench) }
