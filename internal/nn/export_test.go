package nn

// setConv2DDirectBudget overrides the direct-path dispatch budget in bytes
// and returns the previous value. Values < 0 disable the direct and fused
// paths.
func setConv2DDirectBudget(b int) (prev int) {
	prev = conv2dDirectBudget
	conv2dDirectBudget = b
	return prev
}
