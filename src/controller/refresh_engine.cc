#include "controller/refresh_engine.h"

namespace wompcm {

RefreshEngine::RefreshEngine(const RefreshConfig& cfg, const PcmTiming& timing,
                             const MemoryGeometry& geom, unsigned channel)
    : cfg_(cfg),
      timing_(timing),
      geom_(geom),
      channel_(channel),
      next_check_(cfg.enabled ? timing.refresh_period_ns : kNeverTick) {}

Tick RefreshEngine::run(Tick now, Architecture& arch, BankResolver bank_of,
                        UnitReady unit_ready) {
  if (!active(arch)) return 0;
  Tick finish = 0;
  while (next_check_ <= now) {
    next_check_ += timing_.refresh_period_ns;
    const Tick f = scan(now, arch, bank_of, unit_ready);
    if (f != 0) finish = f;
  }
  return finish;
}

Tick RefreshEngine::scan(Tick now, Architecture& arch, BankResolver bank_of,
                         UnitReady unit_ready) {
  const unsigned nranks = geom_.ranks;
  for (unsigned i = 0; i < nranks; ++i) {
    const unsigned rank = (cursor_ + i) % nranks;
    const double pending = arch.refresh_pending_fraction(channel_, rank);
    if (pending <= 0.0 || pending < cfg_.threshold) continue;
    const Architecture::RefreshWork work =
        arch.perform_refresh(channel_, rank, unit_ready);
    if (work.rows == 0) continue;
    // Burst-mode command: t_WR plus one data burst per row streamed.
    const Tick until =
        now + timing_.row_write_ns + work.rows * timing_.burst_ns();
    for (const unsigned r : work.resources) {
      Bank& bank = bank_of(r);
      bank.begin_refresh(until);
      // The refresh streams rows through the row buffer.
      bank.close_row();
    }
    rows_ += work.rows;
    ++commands_;
    cursor_ = (rank + 1) % nranks;
    return until;
  }
  cursor_ = (cursor_ + 1) % nranks;
  return 0;
}

}  // namespace wompcm
