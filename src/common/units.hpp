// dB/linear conversions and the physical constants used throughout the
// simulator. Conventions: power quantities in dB/dBm, amplitudes linear.
#pragma once

#include <cmath>

namespace ff {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;
inline constexpr double kSpeedOfLight = 2.99792458e8;  // m/s

/// Power ratio -> dB. `ratio` must be > 0.
inline double db_from_power(double ratio) { return 10.0 * std::log10(ratio); }

/// dB -> power ratio.
inline double power_from_db(double db) { return std::pow(10.0, db / 10.0); }

/// Amplitude ratio -> dB.
inline double db_from_amplitude(double ratio) { return 20.0 * std::log10(ratio); }

/// dB -> amplitude ratio.
inline double amplitude_from_db(double db) { return std::pow(10.0, db / 20.0); }

/// Degrees <-> radians.
inline double rad_from_deg(double deg) { return deg * kPi / 180.0; }
inline double deg_from_rad(double rad) { return rad * 180.0 / kPi; }

}  // namespace ff
