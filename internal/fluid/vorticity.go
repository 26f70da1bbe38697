package fluid

// Vorticity computes the curl of the velocity field pointwise into
// (wx, wy, wz), the derived field in situ pipelines most often render.
// The computation runs element-local on the device, like NekRS's
// omega kernels; the outputs must be distinct slices of length
// NumNodes and must not alias solver work arrays. The gradients go in
// fu fv fw, which hold nothing between steps.
func (s *Solver) Vorticity(wx, wy, wz []float64) {
	u, v, w := s.U.Data(), s.V.Data(), s.W.Data()
	gx, gy, gz := s.fu, s.fv, s.fw

	// curl_x = dw/dy - dv/dz, curl_y = du/dz - dw/dx,
	// curl_z = dv/dx - du/dy. Three gradient sweeps, accumulating each
	// term as its gradient becomes available.
	s.gradient(u, gx, gy, gz)
	for i := 0; i < s.n; i++ {
		wy[i] = gz[i]  // du/dz
		wz[i] = -gy[i] // -du/dy
	}
	s.gradient(v, gx, gy, gz)
	for i := 0; i < s.n; i++ {
		wx[i] = -gz[i] // -dv/dz
		wz[i] += gx[i] // +dv/dx
	}
	s.gradient(w, gx, gy, gz)
	for i := 0; i < s.n; i++ {
		wx[i] += gy[i] // +dw/dy
		wy[i] -= gx[i] // -dw/dx
	}
}
