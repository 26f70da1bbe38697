// Code generated by go run gen.go; DO NOT EDIT.

package tensor

// generatedSizes lists the nq that have generated kernels.
var generatedSizes = []int{4, 5, 6, 7, 8}

// derivRFixed runs the generated derivR kernel for nq and reports whether
// one exists.
func derivRFixed(d []float64, nq int, u, out []float64) bool {
	switch nq {
	case 4:
		derivR4((*[16]float64)(d), (*[64]float64)(u), (*[64]float64)(out))
	case 5:
		derivR5((*[25]float64)(d), (*[125]float64)(u), (*[125]float64)(out))
	case 6:
		derivR6((*[36]float64)(d), (*[216]float64)(u), (*[216]float64)(out))
	case 7:
		derivR7((*[49]float64)(d), (*[343]float64)(u), (*[343]float64)(out))
	case 8:
		derivR8((*[64]float64)(d), (*[512]float64)(u), (*[512]float64)(out))
	default:
		return false
	}
	return true
}

func derivR4(d *[16]float64, u, out *[64]float64) {
	for o := 0; o < 64; o += 4 {
		p := o
		_, _ = u[p+3], out[p+3]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3
		out[p+1] = 0 + d[4]*u0 + d[5]*u1 + d[6]*u2 + d[7]*u3
		out[p+2] = 0 + d[8]*u0 + d[9]*u1 + d[10]*u2 + d[11]*u3
		out[p+3] = 0 + d[12]*u0 + d[13]*u1 + d[14]*u2 + d[15]*u3
	}
}

func derivR5(d *[25]float64, u, out *[125]float64) {
	for o := 0; o < 125; o += 5 {
		p := o
		_, _ = u[p+4], out[p+4]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		u4 := u[p+4]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4
		out[p+1] = 0 + d[5]*u0 + d[6]*u1 + d[7]*u2 + d[8]*u3 + d[9]*u4
		out[p+2] = 0 + d[10]*u0 + d[11]*u1 + d[12]*u2 + d[13]*u3 + d[14]*u4
		out[p+3] = 0 + d[15]*u0 + d[16]*u1 + d[17]*u2 + d[18]*u3 + d[19]*u4
		out[p+4] = 0 + d[20]*u0 + d[21]*u1 + d[22]*u2 + d[23]*u3 + d[24]*u4
	}
}

func derivR6(d *[36]float64, u, out *[216]float64) {
	for o := 0; o < 216; o += 6 {
		p := o
		_, _ = u[p+5], out[p+5]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		u4 := u[p+4]
		u5 := u[p+5]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5
		out[p+1] = 0 + d[6]*u0 + d[7]*u1 + d[8]*u2 + d[9]*u3 + d[10]*u4 + d[11]*u5
		out[p+2] = 0 + d[12]*u0 + d[13]*u1 + d[14]*u2 + d[15]*u3 + d[16]*u4 + d[17]*u5
		out[p+3] = 0 + d[18]*u0 + d[19]*u1 + d[20]*u2 + d[21]*u3 + d[22]*u4 + d[23]*u5
		out[p+4] = 0 + d[24]*u0 + d[25]*u1 + d[26]*u2 + d[27]*u3 + d[28]*u4 + d[29]*u5
		out[p+5] = 0 + d[30]*u0 + d[31]*u1 + d[32]*u2 + d[33]*u3 + d[34]*u4 + d[35]*u5
	}
}

func derivR7(d *[49]float64, u, out *[343]float64) {
	for o := 0; o < 343; o += 7 {
		p := o
		_, _ = u[p+6], out[p+6]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		u4 := u[p+4]
		u5 := u[p+5]
		u6 := u[p+6]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5 + d[6]*u6
		out[p+1] = 0 + d[7]*u0 + d[8]*u1 + d[9]*u2 + d[10]*u3 + d[11]*u4 + d[12]*u5 + d[13]*u6
		out[p+2] = 0 + d[14]*u0 + d[15]*u1 + d[16]*u2 + d[17]*u3 + d[18]*u4 + d[19]*u5 + d[20]*u6
		out[p+3] = 0 + d[21]*u0 + d[22]*u1 + d[23]*u2 + d[24]*u3 + d[25]*u4 + d[26]*u5 + d[27]*u6
		out[p+4] = 0 + d[28]*u0 + d[29]*u1 + d[30]*u2 + d[31]*u3 + d[32]*u4 + d[33]*u5 + d[34]*u6
		out[p+5] = 0 + d[35]*u0 + d[36]*u1 + d[37]*u2 + d[38]*u3 + d[39]*u4 + d[40]*u5 + d[41]*u6
		out[p+6] = 0 + d[42]*u0 + d[43]*u1 + d[44]*u2 + d[45]*u3 + d[46]*u4 + d[47]*u5 + d[48]*u6
	}
}

func derivR8(d *[64]float64, u, out *[512]float64) {
	for o := 0; o < 512; o += 8 {
		p := o
		_, _ = u[p+7], out[p+7]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		u4 := u[p+4]
		u5 := u[p+5]
		u6 := u[p+6]
		u7 := u[p+7]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5 + d[6]*u6 + d[7]*u7
		out[p+1] = 0 + d[8]*u0 + d[9]*u1 + d[10]*u2 + d[11]*u3 + d[12]*u4 + d[13]*u5 + d[14]*u6 + d[15]*u7
		out[p+2] = 0 + d[16]*u0 + d[17]*u1 + d[18]*u2 + d[19]*u3 + d[20]*u4 + d[21]*u5 + d[22]*u6 + d[23]*u7
		out[p+3] = 0 + d[24]*u0 + d[25]*u1 + d[26]*u2 + d[27]*u3 + d[28]*u4 + d[29]*u5 + d[30]*u6 + d[31]*u7
		out[p+4] = 0 + d[32]*u0 + d[33]*u1 + d[34]*u2 + d[35]*u3 + d[36]*u4 + d[37]*u5 + d[38]*u6 + d[39]*u7
		out[p+5] = 0 + d[40]*u0 + d[41]*u1 + d[42]*u2 + d[43]*u3 + d[44]*u4 + d[45]*u5 + d[46]*u6 + d[47]*u7
		out[p+6] = 0 + d[48]*u0 + d[49]*u1 + d[50]*u2 + d[51]*u3 + d[52]*u4 + d[53]*u5 + d[54]*u6 + d[55]*u7
		out[p+7] = 0 + d[56]*u0 + d[57]*u1 + d[58]*u2 + d[59]*u3 + d[60]*u4 + d[61]*u5 + d[62]*u6 + d[63]*u7
	}
}

// derivRTFixed runs the generated derivRT kernel for nq and reports whether
// one exists.
func derivRTFixed(d []float64, nq int, u, out []float64) bool {
	switch nq {
	case 4:
		derivRT4((*[16]float64)(d), (*[64]float64)(u), (*[64]float64)(out))
	case 5:
		derivRT5((*[25]float64)(d), (*[125]float64)(u), (*[125]float64)(out))
	case 6:
		derivRT6((*[36]float64)(d), (*[216]float64)(u), (*[216]float64)(out))
	case 7:
		derivRT7((*[49]float64)(d), (*[343]float64)(u), (*[343]float64)(out))
	case 8:
		derivRT8((*[64]float64)(d), (*[512]float64)(u), (*[512]float64)(out))
	default:
		return false
	}
	return true
}

func derivRT4(d *[16]float64, u, out *[64]float64) {
	for o := 0; o < 64; o += 4 {
		p := o
		_, _ = u[p+3], out[p+3]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		out[p+0] = out[p+0] + d[0]*u0 + d[4]*u1 + d[8]*u2 + d[12]*u3
		out[p+1] = out[p+1] + d[1]*u0 + d[5]*u1 + d[9]*u2 + d[13]*u3
		out[p+2] = out[p+2] + d[2]*u0 + d[6]*u1 + d[10]*u2 + d[14]*u3
		out[p+3] = out[p+3] + d[3]*u0 + d[7]*u1 + d[11]*u2 + d[15]*u3
	}
}

func derivRT5(d *[25]float64, u, out *[125]float64) {
	for o := 0; o < 125; o += 5 {
		p := o
		_, _ = u[p+4], out[p+4]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		u4 := u[p+4]
		out[p+0] = out[p+0] + d[0]*u0 + d[5]*u1 + d[10]*u2 + d[15]*u3 + d[20]*u4
		out[p+1] = out[p+1] + d[1]*u0 + d[6]*u1 + d[11]*u2 + d[16]*u3 + d[21]*u4
		out[p+2] = out[p+2] + d[2]*u0 + d[7]*u1 + d[12]*u2 + d[17]*u3 + d[22]*u4
		out[p+3] = out[p+3] + d[3]*u0 + d[8]*u1 + d[13]*u2 + d[18]*u3 + d[23]*u4
		out[p+4] = out[p+4] + d[4]*u0 + d[9]*u1 + d[14]*u2 + d[19]*u3 + d[24]*u4
	}
}

func derivRT6(d *[36]float64, u, out *[216]float64) {
	for o := 0; o < 216; o += 6 {
		p := o
		_, _ = u[p+5], out[p+5]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		u4 := u[p+4]
		u5 := u[p+5]
		out[p+0] = out[p+0] + d[0]*u0 + d[6]*u1 + d[12]*u2 + d[18]*u3 + d[24]*u4 + d[30]*u5
		out[p+1] = out[p+1] + d[1]*u0 + d[7]*u1 + d[13]*u2 + d[19]*u3 + d[25]*u4 + d[31]*u5
		out[p+2] = out[p+2] + d[2]*u0 + d[8]*u1 + d[14]*u2 + d[20]*u3 + d[26]*u4 + d[32]*u5
		out[p+3] = out[p+3] + d[3]*u0 + d[9]*u1 + d[15]*u2 + d[21]*u3 + d[27]*u4 + d[33]*u5
		out[p+4] = out[p+4] + d[4]*u0 + d[10]*u1 + d[16]*u2 + d[22]*u3 + d[28]*u4 + d[34]*u5
		out[p+5] = out[p+5] + d[5]*u0 + d[11]*u1 + d[17]*u2 + d[23]*u3 + d[29]*u4 + d[35]*u5
	}
}

func derivRT7(d *[49]float64, u, out *[343]float64) {
	for o := 0; o < 343; o += 7 {
		p := o
		_, _ = u[p+6], out[p+6]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		u4 := u[p+4]
		u5 := u[p+5]
		u6 := u[p+6]
		out[p+0] = out[p+0] + d[0]*u0 + d[7]*u1 + d[14]*u2 + d[21]*u3 + d[28]*u4 + d[35]*u5 + d[42]*u6
		out[p+1] = out[p+1] + d[1]*u0 + d[8]*u1 + d[15]*u2 + d[22]*u3 + d[29]*u4 + d[36]*u5 + d[43]*u6
		out[p+2] = out[p+2] + d[2]*u0 + d[9]*u1 + d[16]*u2 + d[23]*u3 + d[30]*u4 + d[37]*u5 + d[44]*u6
		out[p+3] = out[p+3] + d[3]*u0 + d[10]*u1 + d[17]*u2 + d[24]*u3 + d[31]*u4 + d[38]*u5 + d[45]*u6
		out[p+4] = out[p+4] + d[4]*u0 + d[11]*u1 + d[18]*u2 + d[25]*u3 + d[32]*u4 + d[39]*u5 + d[46]*u6
		out[p+5] = out[p+5] + d[5]*u0 + d[12]*u1 + d[19]*u2 + d[26]*u3 + d[33]*u4 + d[40]*u5 + d[47]*u6
		out[p+6] = out[p+6] + d[6]*u0 + d[13]*u1 + d[20]*u2 + d[27]*u3 + d[34]*u4 + d[41]*u5 + d[48]*u6
	}
}

func derivRT8(d *[64]float64, u, out *[512]float64) {
	for o := 0; o < 512; o += 8 {
		p := o
		_, _ = u[p+7], out[p+7]
		u0 := u[p+0]
		u1 := u[p+1]
		u2 := u[p+2]
		u3 := u[p+3]
		u4 := u[p+4]
		u5 := u[p+5]
		u6 := u[p+6]
		u7 := u[p+7]
		out[p+0] = out[p+0] + d[0]*u0 + d[8]*u1 + d[16]*u2 + d[24]*u3 + d[32]*u4 + d[40]*u5 + d[48]*u6 + d[56]*u7
		out[p+1] = out[p+1] + d[1]*u0 + d[9]*u1 + d[17]*u2 + d[25]*u3 + d[33]*u4 + d[41]*u5 + d[49]*u6 + d[57]*u7
		out[p+2] = out[p+2] + d[2]*u0 + d[10]*u1 + d[18]*u2 + d[26]*u3 + d[34]*u4 + d[42]*u5 + d[50]*u6 + d[58]*u7
		out[p+3] = out[p+3] + d[3]*u0 + d[11]*u1 + d[19]*u2 + d[27]*u3 + d[35]*u4 + d[43]*u5 + d[51]*u6 + d[59]*u7
		out[p+4] = out[p+4] + d[4]*u0 + d[12]*u1 + d[20]*u2 + d[28]*u3 + d[36]*u4 + d[44]*u5 + d[52]*u6 + d[60]*u7
		out[p+5] = out[p+5] + d[5]*u0 + d[13]*u1 + d[21]*u2 + d[29]*u3 + d[37]*u4 + d[45]*u5 + d[53]*u6 + d[61]*u7
		out[p+6] = out[p+6] + d[6]*u0 + d[14]*u1 + d[22]*u2 + d[30]*u3 + d[38]*u4 + d[46]*u5 + d[54]*u6 + d[62]*u7
		out[p+7] = out[p+7] + d[7]*u0 + d[15]*u1 + d[23]*u2 + d[31]*u3 + d[39]*u4 + d[47]*u5 + d[55]*u6 + d[63]*u7
	}
}

// derivSFixed runs the generated derivS kernel for nq and reports whether
// one exists.
func derivSFixed(d []float64, nq int, u, out []float64) bool {
	switch nq {
	case 4:
		derivS4((*[16]float64)(d), (*[64]float64)(u), (*[64]float64)(out))
	case 5:
		derivS5((*[25]float64)(d), (*[125]float64)(u), (*[125]float64)(out))
	case 6:
		derivS6((*[36]float64)(d), (*[216]float64)(u), (*[216]float64)(out))
	case 7:
		derivS7((*[49]float64)(d), (*[343]float64)(u), (*[343]float64)(out))
	case 8:
		derivS8((*[64]float64)(d), (*[512]float64)(u), (*[512]float64)(out))
	default:
		return false
	}
	return true
}

func derivS4(d *[16]float64, u, out *[64]float64) {
	for o := 0; o < 64; o += 16 {
		for i := 0; i < 4; i++ {
			p := o + i
			_, _ = u[p+12], out[p+12]
			u0 := u[p+0]
			u1 := u[p+4]
			u2 := u[p+8]
			u3 := u[p+12]
			out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3
			out[p+4] = 0 + d[4]*u0 + d[5]*u1 + d[6]*u2 + d[7]*u3
			out[p+8] = 0 + d[8]*u0 + d[9]*u1 + d[10]*u2 + d[11]*u3
			out[p+12] = 0 + d[12]*u0 + d[13]*u1 + d[14]*u2 + d[15]*u3
		}
	}
}

func derivS5(d *[25]float64, u, out *[125]float64) {
	for o := 0; o < 125; o += 25 {
		for i := 0; i < 5; i++ {
			p := o + i
			_, _ = u[p+20], out[p+20]
			u0 := u[p+0]
			u1 := u[p+5]
			u2 := u[p+10]
			u3 := u[p+15]
			u4 := u[p+20]
			out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4
			out[p+5] = 0 + d[5]*u0 + d[6]*u1 + d[7]*u2 + d[8]*u3 + d[9]*u4
			out[p+10] = 0 + d[10]*u0 + d[11]*u1 + d[12]*u2 + d[13]*u3 + d[14]*u4
			out[p+15] = 0 + d[15]*u0 + d[16]*u1 + d[17]*u2 + d[18]*u3 + d[19]*u4
			out[p+20] = 0 + d[20]*u0 + d[21]*u1 + d[22]*u2 + d[23]*u3 + d[24]*u4
		}
	}
}

func derivS6(d *[36]float64, u, out *[216]float64) {
	for o := 0; o < 216; o += 36 {
		for i := 0; i < 6; i++ {
			p := o + i
			_, _ = u[p+30], out[p+30]
			u0 := u[p+0]
			u1 := u[p+6]
			u2 := u[p+12]
			u3 := u[p+18]
			u4 := u[p+24]
			u5 := u[p+30]
			out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5
			out[p+6] = 0 + d[6]*u0 + d[7]*u1 + d[8]*u2 + d[9]*u3 + d[10]*u4 + d[11]*u5
			out[p+12] = 0 + d[12]*u0 + d[13]*u1 + d[14]*u2 + d[15]*u3 + d[16]*u4 + d[17]*u5
			out[p+18] = 0 + d[18]*u0 + d[19]*u1 + d[20]*u2 + d[21]*u3 + d[22]*u4 + d[23]*u5
			out[p+24] = 0 + d[24]*u0 + d[25]*u1 + d[26]*u2 + d[27]*u3 + d[28]*u4 + d[29]*u5
			out[p+30] = 0 + d[30]*u0 + d[31]*u1 + d[32]*u2 + d[33]*u3 + d[34]*u4 + d[35]*u5
		}
	}
}

func derivS7(d *[49]float64, u, out *[343]float64) {
	for o := 0; o < 343; o += 49 {
		for i := 0; i < 7; i++ {
			p := o + i
			_, _ = u[p+42], out[p+42]
			u0 := u[p+0]
			u1 := u[p+7]
			u2 := u[p+14]
			u3 := u[p+21]
			u4 := u[p+28]
			u5 := u[p+35]
			u6 := u[p+42]
			out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5 + d[6]*u6
			out[p+7] = 0 + d[7]*u0 + d[8]*u1 + d[9]*u2 + d[10]*u3 + d[11]*u4 + d[12]*u5 + d[13]*u6
			out[p+14] = 0 + d[14]*u0 + d[15]*u1 + d[16]*u2 + d[17]*u3 + d[18]*u4 + d[19]*u5 + d[20]*u6
			out[p+21] = 0 + d[21]*u0 + d[22]*u1 + d[23]*u2 + d[24]*u3 + d[25]*u4 + d[26]*u5 + d[27]*u6
			out[p+28] = 0 + d[28]*u0 + d[29]*u1 + d[30]*u2 + d[31]*u3 + d[32]*u4 + d[33]*u5 + d[34]*u6
			out[p+35] = 0 + d[35]*u0 + d[36]*u1 + d[37]*u2 + d[38]*u3 + d[39]*u4 + d[40]*u5 + d[41]*u6
			out[p+42] = 0 + d[42]*u0 + d[43]*u1 + d[44]*u2 + d[45]*u3 + d[46]*u4 + d[47]*u5 + d[48]*u6
		}
	}
}

func derivS8(d *[64]float64, u, out *[512]float64) {
	for o := 0; o < 512; o += 64 {
		for i := 0; i < 8; i++ {
			p := o + i
			_, _ = u[p+56], out[p+56]
			u0 := u[p+0]
			u1 := u[p+8]
			u2 := u[p+16]
			u3 := u[p+24]
			u4 := u[p+32]
			u5 := u[p+40]
			u6 := u[p+48]
			u7 := u[p+56]
			out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5 + d[6]*u6 + d[7]*u7
			out[p+8] = 0 + d[8]*u0 + d[9]*u1 + d[10]*u2 + d[11]*u3 + d[12]*u4 + d[13]*u5 + d[14]*u6 + d[15]*u7
			out[p+16] = 0 + d[16]*u0 + d[17]*u1 + d[18]*u2 + d[19]*u3 + d[20]*u4 + d[21]*u5 + d[22]*u6 + d[23]*u7
			out[p+24] = 0 + d[24]*u0 + d[25]*u1 + d[26]*u2 + d[27]*u3 + d[28]*u4 + d[29]*u5 + d[30]*u6 + d[31]*u7
			out[p+32] = 0 + d[32]*u0 + d[33]*u1 + d[34]*u2 + d[35]*u3 + d[36]*u4 + d[37]*u5 + d[38]*u6 + d[39]*u7
			out[p+40] = 0 + d[40]*u0 + d[41]*u1 + d[42]*u2 + d[43]*u3 + d[44]*u4 + d[45]*u5 + d[46]*u6 + d[47]*u7
			out[p+48] = 0 + d[48]*u0 + d[49]*u1 + d[50]*u2 + d[51]*u3 + d[52]*u4 + d[53]*u5 + d[54]*u6 + d[55]*u7
			out[p+56] = 0 + d[56]*u0 + d[57]*u1 + d[58]*u2 + d[59]*u3 + d[60]*u4 + d[61]*u5 + d[62]*u6 + d[63]*u7
		}
	}
}

// derivSTFixed runs the generated derivST kernel for nq and reports whether
// one exists.
func derivSTFixed(d []float64, nq int, u, out []float64) bool {
	switch nq {
	case 4:
		derivST4((*[16]float64)(d), (*[64]float64)(u), (*[64]float64)(out))
	case 5:
		derivST5((*[25]float64)(d), (*[125]float64)(u), (*[125]float64)(out))
	case 6:
		derivST6((*[36]float64)(d), (*[216]float64)(u), (*[216]float64)(out))
	case 7:
		derivST7((*[49]float64)(d), (*[343]float64)(u), (*[343]float64)(out))
	case 8:
		derivST8((*[64]float64)(d), (*[512]float64)(u), (*[512]float64)(out))
	default:
		return false
	}
	return true
}

func derivST4(d *[16]float64, u, out *[64]float64) {
	for o := 0; o < 64; o += 16 {
		for i := 0; i < 4; i++ {
			p := o + i
			_, _ = u[p+12], out[p+12]
			u0 := u[p+0]
			u1 := u[p+4]
			u2 := u[p+8]
			u3 := u[p+12]
			out[p+0] = out[p+0] + d[0]*u0 + d[4]*u1 + d[8]*u2 + d[12]*u3
			out[p+4] = out[p+4] + d[1]*u0 + d[5]*u1 + d[9]*u2 + d[13]*u3
			out[p+8] = out[p+8] + d[2]*u0 + d[6]*u1 + d[10]*u2 + d[14]*u3
			out[p+12] = out[p+12] + d[3]*u0 + d[7]*u1 + d[11]*u2 + d[15]*u3
		}
	}
}

func derivST5(d *[25]float64, u, out *[125]float64) {
	for o := 0; o < 125; o += 25 {
		for i := 0; i < 5; i++ {
			p := o + i
			_, _ = u[p+20], out[p+20]
			u0 := u[p+0]
			u1 := u[p+5]
			u2 := u[p+10]
			u3 := u[p+15]
			u4 := u[p+20]
			out[p+0] = out[p+0] + d[0]*u0 + d[5]*u1 + d[10]*u2 + d[15]*u3 + d[20]*u4
			out[p+5] = out[p+5] + d[1]*u0 + d[6]*u1 + d[11]*u2 + d[16]*u3 + d[21]*u4
			out[p+10] = out[p+10] + d[2]*u0 + d[7]*u1 + d[12]*u2 + d[17]*u3 + d[22]*u4
			out[p+15] = out[p+15] + d[3]*u0 + d[8]*u1 + d[13]*u2 + d[18]*u3 + d[23]*u4
			out[p+20] = out[p+20] + d[4]*u0 + d[9]*u1 + d[14]*u2 + d[19]*u3 + d[24]*u4
		}
	}
}

func derivST6(d *[36]float64, u, out *[216]float64) {
	for o := 0; o < 216; o += 36 {
		for i := 0; i < 6; i++ {
			p := o + i
			_, _ = u[p+30], out[p+30]
			u0 := u[p+0]
			u1 := u[p+6]
			u2 := u[p+12]
			u3 := u[p+18]
			u4 := u[p+24]
			u5 := u[p+30]
			out[p+0] = out[p+0] + d[0]*u0 + d[6]*u1 + d[12]*u2 + d[18]*u3 + d[24]*u4 + d[30]*u5
			out[p+6] = out[p+6] + d[1]*u0 + d[7]*u1 + d[13]*u2 + d[19]*u3 + d[25]*u4 + d[31]*u5
			out[p+12] = out[p+12] + d[2]*u0 + d[8]*u1 + d[14]*u2 + d[20]*u3 + d[26]*u4 + d[32]*u5
			out[p+18] = out[p+18] + d[3]*u0 + d[9]*u1 + d[15]*u2 + d[21]*u3 + d[27]*u4 + d[33]*u5
			out[p+24] = out[p+24] + d[4]*u0 + d[10]*u1 + d[16]*u2 + d[22]*u3 + d[28]*u4 + d[34]*u5
			out[p+30] = out[p+30] + d[5]*u0 + d[11]*u1 + d[17]*u2 + d[23]*u3 + d[29]*u4 + d[35]*u5
		}
	}
}

func derivST7(d *[49]float64, u, out *[343]float64) {
	for o := 0; o < 343; o += 49 {
		for i := 0; i < 7; i++ {
			p := o + i
			_, _ = u[p+42], out[p+42]
			u0 := u[p+0]
			u1 := u[p+7]
			u2 := u[p+14]
			u3 := u[p+21]
			u4 := u[p+28]
			u5 := u[p+35]
			u6 := u[p+42]
			out[p+0] = out[p+0] + d[0]*u0 + d[7]*u1 + d[14]*u2 + d[21]*u3 + d[28]*u4 + d[35]*u5 + d[42]*u6
			out[p+7] = out[p+7] + d[1]*u0 + d[8]*u1 + d[15]*u2 + d[22]*u3 + d[29]*u4 + d[36]*u5 + d[43]*u6
			out[p+14] = out[p+14] + d[2]*u0 + d[9]*u1 + d[16]*u2 + d[23]*u3 + d[30]*u4 + d[37]*u5 + d[44]*u6
			out[p+21] = out[p+21] + d[3]*u0 + d[10]*u1 + d[17]*u2 + d[24]*u3 + d[31]*u4 + d[38]*u5 + d[45]*u6
			out[p+28] = out[p+28] + d[4]*u0 + d[11]*u1 + d[18]*u2 + d[25]*u3 + d[32]*u4 + d[39]*u5 + d[46]*u6
			out[p+35] = out[p+35] + d[5]*u0 + d[12]*u1 + d[19]*u2 + d[26]*u3 + d[33]*u4 + d[40]*u5 + d[47]*u6
			out[p+42] = out[p+42] + d[6]*u0 + d[13]*u1 + d[20]*u2 + d[27]*u3 + d[34]*u4 + d[41]*u5 + d[48]*u6
		}
	}
}

func derivST8(d *[64]float64, u, out *[512]float64) {
	for o := 0; o < 512; o += 64 {
		for i := 0; i < 8; i++ {
			p := o + i
			_, _ = u[p+56], out[p+56]
			u0 := u[p+0]
			u1 := u[p+8]
			u2 := u[p+16]
			u3 := u[p+24]
			u4 := u[p+32]
			u5 := u[p+40]
			u6 := u[p+48]
			u7 := u[p+56]
			out[p+0] = out[p+0] + d[0]*u0 + d[8]*u1 + d[16]*u2 + d[24]*u3 + d[32]*u4 + d[40]*u5 + d[48]*u6 + d[56]*u7
			out[p+8] = out[p+8] + d[1]*u0 + d[9]*u1 + d[17]*u2 + d[25]*u3 + d[33]*u4 + d[41]*u5 + d[49]*u6 + d[57]*u7
			out[p+16] = out[p+16] + d[2]*u0 + d[10]*u1 + d[18]*u2 + d[26]*u3 + d[34]*u4 + d[42]*u5 + d[50]*u6 + d[58]*u7
			out[p+24] = out[p+24] + d[3]*u0 + d[11]*u1 + d[19]*u2 + d[27]*u3 + d[35]*u4 + d[43]*u5 + d[51]*u6 + d[59]*u7
			out[p+32] = out[p+32] + d[4]*u0 + d[12]*u1 + d[20]*u2 + d[28]*u3 + d[36]*u4 + d[44]*u5 + d[52]*u6 + d[60]*u7
			out[p+40] = out[p+40] + d[5]*u0 + d[13]*u1 + d[21]*u2 + d[29]*u3 + d[37]*u4 + d[45]*u5 + d[53]*u6 + d[61]*u7
			out[p+48] = out[p+48] + d[6]*u0 + d[14]*u1 + d[22]*u2 + d[30]*u3 + d[38]*u4 + d[46]*u5 + d[54]*u6 + d[62]*u7
			out[p+56] = out[p+56] + d[7]*u0 + d[15]*u1 + d[23]*u2 + d[31]*u3 + d[39]*u4 + d[47]*u5 + d[55]*u6 + d[63]*u7
		}
	}
}

// derivTFixed runs the generated derivT kernel for nq and reports whether
// one exists.
func derivTFixed(d []float64, nq int, u, out []float64) bool {
	switch nq {
	case 4:
		derivT4((*[16]float64)(d), (*[64]float64)(u), (*[64]float64)(out))
	case 5:
		derivT5((*[25]float64)(d), (*[125]float64)(u), (*[125]float64)(out))
	case 6:
		derivT6((*[36]float64)(d), (*[216]float64)(u), (*[216]float64)(out))
	case 7:
		derivT7((*[49]float64)(d), (*[343]float64)(u), (*[343]float64)(out))
	case 8:
		derivT8((*[64]float64)(d), (*[512]float64)(u), (*[512]float64)(out))
	default:
		return false
	}
	return true
}

func derivT4(d *[16]float64, u, out *[64]float64) {
	for i := 0; i < 16; i++ {
		p := i
		_, _ = u[p+48], out[p+48]
		u0 := u[p+0]
		u1 := u[p+16]
		u2 := u[p+32]
		u3 := u[p+48]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3
		out[p+16] = 0 + d[4]*u0 + d[5]*u1 + d[6]*u2 + d[7]*u3
		out[p+32] = 0 + d[8]*u0 + d[9]*u1 + d[10]*u2 + d[11]*u3
		out[p+48] = 0 + d[12]*u0 + d[13]*u1 + d[14]*u2 + d[15]*u3
	}
}

func derivT5(d *[25]float64, u, out *[125]float64) {
	for i := 0; i < 25; i++ {
		p := i
		_, _ = u[p+100], out[p+100]
		u0 := u[p+0]
		u1 := u[p+25]
		u2 := u[p+50]
		u3 := u[p+75]
		u4 := u[p+100]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4
		out[p+25] = 0 + d[5]*u0 + d[6]*u1 + d[7]*u2 + d[8]*u3 + d[9]*u4
		out[p+50] = 0 + d[10]*u0 + d[11]*u1 + d[12]*u2 + d[13]*u3 + d[14]*u4
		out[p+75] = 0 + d[15]*u0 + d[16]*u1 + d[17]*u2 + d[18]*u3 + d[19]*u4
		out[p+100] = 0 + d[20]*u0 + d[21]*u1 + d[22]*u2 + d[23]*u3 + d[24]*u4
	}
}

func derivT6(d *[36]float64, u, out *[216]float64) {
	for i := 0; i < 36; i++ {
		p := i
		_, _ = u[p+180], out[p+180]
		u0 := u[p+0]
		u1 := u[p+36]
		u2 := u[p+72]
		u3 := u[p+108]
		u4 := u[p+144]
		u5 := u[p+180]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5
		out[p+36] = 0 + d[6]*u0 + d[7]*u1 + d[8]*u2 + d[9]*u3 + d[10]*u4 + d[11]*u5
		out[p+72] = 0 + d[12]*u0 + d[13]*u1 + d[14]*u2 + d[15]*u3 + d[16]*u4 + d[17]*u5
		out[p+108] = 0 + d[18]*u0 + d[19]*u1 + d[20]*u2 + d[21]*u3 + d[22]*u4 + d[23]*u5
		out[p+144] = 0 + d[24]*u0 + d[25]*u1 + d[26]*u2 + d[27]*u3 + d[28]*u4 + d[29]*u5
		out[p+180] = 0 + d[30]*u0 + d[31]*u1 + d[32]*u2 + d[33]*u3 + d[34]*u4 + d[35]*u5
	}
}

func derivT7(d *[49]float64, u, out *[343]float64) {
	for i := 0; i < 49; i++ {
		p := i
		_, _ = u[p+294], out[p+294]
		u0 := u[p+0]
		u1 := u[p+49]
		u2 := u[p+98]
		u3 := u[p+147]
		u4 := u[p+196]
		u5 := u[p+245]
		u6 := u[p+294]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5 + d[6]*u6
		out[p+49] = 0 + d[7]*u0 + d[8]*u1 + d[9]*u2 + d[10]*u3 + d[11]*u4 + d[12]*u5 + d[13]*u6
		out[p+98] = 0 + d[14]*u0 + d[15]*u1 + d[16]*u2 + d[17]*u3 + d[18]*u4 + d[19]*u5 + d[20]*u6
		out[p+147] = 0 + d[21]*u0 + d[22]*u1 + d[23]*u2 + d[24]*u3 + d[25]*u4 + d[26]*u5 + d[27]*u6
		out[p+196] = 0 + d[28]*u0 + d[29]*u1 + d[30]*u2 + d[31]*u3 + d[32]*u4 + d[33]*u5 + d[34]*u6
		out[p+245] = 0 + d[35]*u0 + d[36]*u1 + d[37]*u2 + d[38]*u3 + d[39]*u4 + d[40]*u5 + d[41]*u6
		out[p+294] = 0 + d[42]*u0 + d[43]*u1 + d[44]*u2 + d[45]*u3 + d[46]*u4 + d[47]*u5 + d[48]*u6
	}
}

func derivT8(d *[64]float64, u, out *[512]float64) {
	for i := 0; i < 64; i++ {
		p := i
		_, _ = u[p+448], out[p+448]
		u0 := u[p+0]
		u1 := u[p+64]
		u2 := u[p+128]
		u3 := u[p+192]
		u4 := u[p+256]
		u5 := u[p+320]
		u6 := u[p+384]
		u7 := u[p+448]
		out[p+0] = 0 + d[0]*u0 + d[1]*u1 + d[2]*u2 + d[3]*u3 + d[4]*u4 + d[5]*u5 + d[6]*u6 + d[7]*u7
		out[p+64] = 0 + d[8]*u0 + d[9]*u1 + d[10]*u2 + d[11]*u3 + d[12]*u4 + d[13]*u5 + d[14]*u6 + d[15]*u7
		out[p+128] = 0 + d[16]*u0 + d[17]*u1 + d[18]*u2 + d[19]*u3 + d[20]*u4 + d[21]*u5 + d[22]*u6 + d[23]*u7
		out[p+192] = 0 + d[24]*u0 + d[25]*u1 + d[26]*u2 + d[27]*u3 + d[28]*u4 + d[29]*u5 + d[30]*u6 + d[31]*u7
		out[p+256] = 0 + d[32]*u0 + d[33]*u1 + d[34]*u2 + d[35]*u3 + d[36]*u4 + d[37]*u5 + d[38]*u6 + d[39]*u7
		out[p+320] = 0 + d[40]*u0 + d[41]*u1 + d[42]*u2 + d[43]*u3 + d[44]*u4 + d[45]*u5 + d[46]*u6 + d[47]*u7
		out[p+384] = 0 + d[48]*u0 + d[49]*u1 + d[50]*u2 + d[51]*u3 + d[52]*u4 + d[53]*u5 + d[54]*u6 + d[55]*u7
		out[p+448] = 0 + d[56]*u0 + d[57]*u1 + d[58]*u2 + d[59]*u3 + d[60]*u4 + d[61]*u5 + d[62]*u6 + d[63]*u7
	}
}

// derivTTFixed runs the generated derivTT kernel for nq and reports whether
// one exists.
func derivTTFixed(d []float64, nq int, u, out []float64) bool {
	switch nq {
	case 4:
		derivTT4((*[16]float64)(d), (*[64]float64)(u), (*[64]float64)(out))
	case 5:
		derivTT5((*[25]float64)(d), (*[125]float64)(u), (*[125]float64)(out))
	case 6:
		derivTT6((*[36]float64)(d), (*[216]float64)(u), (*[216]float64)(out))
	case 7:
		derivTT7((*[49]float64)(d), (*[343]float64)(u), (*[343]float64)(out))
	case 8:
		derivTT8((*[64]float64)(d), (*[512]float64)(u), (*[512]float64)(out))
	default:
		return false
	}
	return true
}

func derivTT4(d *[16]float64, u, out *[64]float64) {
	for i := 0; i < 16; i++ {
		p := i
		_, _ = u[p+48], out[p+48]
		u0 := u[p+0]
		u1 := u[p+16]
		u2 := u[p+32]
		u3 := u[p+48]
		out[p+0] = out[p+0] + d[0]*u0 + d[4]*u1 + d[8]*u2 + d[12]*u3
		out[p+16] = out[p+16] + d[1]*u0 + d[5]*u1 + d[9]*u2 + d[13]*u3
		out[p+32] = out[p+32] + d[2]*u0 + d[6]*u1 + d[10]*u2 + d[14]*u3
		out[p+48] = out[p+48] + d[3]*u0 + d[7]*u1 + d[11]*u2 + d[15]*u3
	}
}

func derivTT5(d *[25]float64, u, out *[125]float64) {
	for i := 0; i < 25; i++ {
		p := i
		_, _ = u[p+100], out[p+100]
		u0 := u[p+0]
		u1 := u[p+25]
		u2 := u[p+50]
		u3 := u[p+75]
		u4 := u[p+100]
		out[p+0] = out[p+0] + d[0]*u0 + d[5]*u1 + d[10]*u2 + d[15]*u3 + d[20]*u4
		out[p+25] = out[p+25] + d[1]*u0 + d[6]*u1 + d[11]*u2 + d[16]*u3 + d[21]*u4
		out[p+50] = out[p+50] + d[2]*u0 + d[7]*u1 + d[12]*u2 + d[17]*u3 + d[22]*u4
		out[p+75] = out[p+75] + d[3]*u0 + d[8]*u1 + d[13]*u2 + d[18]*u3 + d[23]*u4
		out[p+100] = out[p+100] + d[4]*u0 + d[9]*u1 + d[14]*u2 + d[19]*u3 + d[24]*u4
	}
}

func derivTT6(d *[36]float64, u, out *[216]float64) {
	for i := 0; i < 36; i++ {
		p := i
		_, _ = u[p+180], out[p+180]
		u0 := u[p+0]
		u1 := u[p+36]
		u2 := u[p+72]
		u3 := u[p+108]
		u4 := u[p+144]
		u5 := u[p+180]
		out[p+0] = out[p+0] + d[0]*u0 + d[6]*u1 + d[12]*u2 + d[18]*u3 + d[24]*u4 + d[30]*u5
		out[p+36] = out[p+36] + d[1]*u0 + d[7]*u1 + d[13]*u2 + d[19]*u3 + d[25]*u4 + d[31]*u5
		out[p+72] = out[p+72] + d[2]*u0 + d[8]*u1 + d[14]*u2 + d[20]*u3 + d[26]*u4 + d[32]*u5
		out[p+108] = out[p+108] + d[3]*u0 + d[9]*u1 + d[15]*u2 + d[21]*u3 + d[27]*u4 + d[33]*u5
		out[p+144] = out[p+144] + d[4]*u0 + d[10]*u1 + d[16]*u2 + d[22]*u3 + d[28]*u4 + d[34]*u5
		out[p+180] = out[p+180] + d[5]*u0 + d[11]*u1 + d[17]*u2 + d[23]*u3 + d[29]*u4 + d[35]*u5
	}
}

func derivTT7(d *[49]float64, u, out *[343]float64) {
	for i := 0; i < 49; i++ {
		p := i
		_, _ = u[p+294], out[p+294]
		u0 := u[p+0]
		u1 := u[p+49]
		u2 := u[p+98]
		u3 := u[p+147]
		u4 := u[p+196]
		u5 := u[p+245]
		u6 := u[p+294]
		out[p+0] = out[p+0] + d[0]*u0 + d[7]*u1 + d[14]*u2 + d[21]*u3 + d[28]*u4 + d[35]*u5 + d[42]*u6
		out[p+49] = out[p+49] + d[1]*u0 + d[8]*u1 + d[15]*u2 + d[22]*u3 + d[29]*u4 + d[36]*u5 + d[43]*u6
		out[p+98] = out[p+98] + d[2]*u0 + d[9]*u1 + d[16]*u2 + d[23]*u3 + d[30]*u4 + d[37]*u5 + d[44]*u6
		out[p+147] = out[p+147] + d[3]*u0 + d[10]*u1 + d[17]*u2 + d[24]*u3 + d[31]*u4 + d[38]*u5 + d[45]*u6
		out[p+196] = out[p+196] + d[4]*u0 + d[11]*u1 + d[18]*u2 + d[25]*u3 + d[32]*u4 + d[39]*u5 + d[46]*u6
		out[p+245] = out[p+245] + d[5]*u0 + d[12]*u1 + d[19]*u2 + d[26]*u3 + d[33]*u4 + d[40]*u5 + d[47]*u6
		out[p+294] = out[p+294] + d[6]*u0 + d[13]*u1 + d[20]*u2 + d[27]*u3 + d[34]*u4 + d[41]*u5 + d[48]*u6
	}
}

func derivTT8(d *[64]float64, u, out *[512]float64) {
	for i := 0; i < 64; i++ {
		p := i
		_, _ = u[p+448], out[p+448]
		u0 := u[p+0]
		u1 := u[p+64]
		u2 := u[p+128]
		u3 := u[p+192]
		u4 := u[p+256]
		u5 := u[p+320]
		u6 := u[p+384]
		u7 := u[p+448]
		out[p+0] = out[p+0] + d[0]*u0 + d[8]*u1 + d[16]*u2 + d[24]*u3 + d[32]*u4 + d[40]*u5 + d[48]*u6 + d[56]*u7
		out[p+64] = out[p+64] + d[1]*u0 + d[9]*u1 + d[17]*u2 + d[25]*u3 + d[33]*u4 + d[41]*u5 + d[49]*u6 + d[57]*u7
		out[p+128] = out[p+128] + d[2]*u0 + d[10]*u1 + d[18]*u2 + d[26]*u3 + d[34]*u4 + d[42]*u5 + d[50]*u6 + d[58]*u7
		out[p+192] = out[p+192] + d[3]*u0 + d[11]*u1 + d[19]*u2 + d[27]*u3 + d[35]*u4 + d[43]*u5 + d[51]*u6 + d[59]*u7
		out[p+256] = out[p+256] + d[4]*u0 + d[12]*u1 + d[20]*u2 + d[28]*u3 + d[36]*u4 + d[44]*u5 + d[52]*u6 + d[60]*u7
		out[p+320] = out[p+320] + d[5]*u0 + d[13]*u1 + d[21]*u2 + d[29]*u3 + d[37]*u4 + d[45]*u5 + d[53]*u6 + d[61]*u7
		out[p+384] = out[p+384] + d[6]*u0 + d[14]*u1 + d[22]*u2 + d[30]*u3 + d[38]*u4 + d[46]*u5 + d[54]*u6 + d[62]*u7
		out[p+448] = out[p+448] + d[7]*u0 + d[15]*u1 + d[23]*u2 + d[31]*u3 + d[39]*u4 + d[47]*u5 + d[55]*u6 + d[63]*u7
	}
}
