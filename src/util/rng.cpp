#include "util/rng.hpp"

namespace mbcr {

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
      0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{0, 0, 0, 0};
  for (std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (int i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      (*this)();
    }
  }
  state_ = acc;
}

double Xoshiro256::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

}  // namespace mbcr
