// Memory geometry and physical-address decomposition.
//
// The paper's configuration (Section 5): 1 channel, 16 ranks, 32 banks/rank,
// 32768 rows/bank, 2048 columns/row, 4 bits per column per device, and 16
// devices ganged for a 64-bit data bus. A column access therefore moves
// 64 bits per beat and a DDR3 burst of 8 beats moves a 64-byte line.
#pragma once

#include <cstddef>
#include <string>

#include "common/types.h"

namespace wompcm {

// Order in which address bits are assigned to the memory coordinates,
// from least significant (after the line offset) to most significant.
enum class AddressMapping : std::uint8_t {
  kRowRankBankCol,  // row : rank : bank : col : offset  (bank interleaved)
  kRowBankRankCol,  // row : bank : rank : col : offset  (rank interleaved)
  kRankBankRowCol,  // rank : bank : row : col : offset  (region per rank)
};

const char* to_string(AddressMapping m);

struct MemoryGeometry {
  unsigned channels = 1;
  unsigned ranks = 16;
  unsigned banks_per_rank = 32;
  unsigned rows_per_bank = 32768;
  unsigned cols_per_row = 2048;    // device columns per row
  unsigned bits_per_col = 4;       // per device
  unsigned devices_per_rank = 16;  // ganged for the 64-bit data bus
  unsigned burst_length = 8;       // DDR3 burst of 8 beats

  AddressMapping mapping = AddressMapping::kRowRankBankCol;

  // Bus width in bits: one beat moves this much data.
  unsigned data_width_bits() const { return bits_per_col * devices_per_rank; }
  // Bytes moved by one full burst (the transaction granularity, 64B here).
  unsigned line_bytes() const {
    return data_width_bits() * burst_length / 8;
  }
  // Bytes stored in one row across all devices of the rank.
  std::size_t row_bytes() const {
    return static_cast<std::size_t>(cols_per_row) * bits_per_col *
           devices_per_rank / 8;
  }
  // Number of burst-sized lines per row (the column coordinate range).
  unsigned lines_per_row() const {
    return static_cast<unsigned>(row_bytes() / line_bytes());
  }
  std::size_t rows_total() const {
    return static_cast<std::size_t>(channels) * ranks * banks_per_rank *
           rows_per_bank;
  }
  std::size_t capacity_bytes() const { return rows_total() * row_bytes(); }

  // True if all fields are power-of-two sized and non-zero (required for
  // bit-sliced address decomposition).
  bool valid(std::string* why = nullptr) const;
};

// A fully decoded physical address.
struct DecodedAddr {
  unsigned channel = 0;
  unsigned rank = 0;
  unsigned bank = 0;
  unsigned row = 0;
  unsigned col = 0;  // line index within the row

  bool operator==(const DecodedAddr&) const = default;
};

// Bit-sliced address codec for a given geometry + mapping.
class AddressMapper {
 public:
  explicit AddressMapper(const MemoryGeometry& geom);

  DecodedAddr decode(Addr addr) const;
  Addr encode(const DecodedAddr& d) const;

  // A flat, unique index for the (channel, rank, bank) triple.
  unsigned flat_bank(const DecodedAddr& d) const;
  unsigned num_flat_banks() const;
  // A unique index for the line at `d`, packed from its coordinates: flat
  // bank, then row, then column. Coordinates must be in range.
  std::uint64_t line_id(const DecodedAddr& d) const {
    std::uint64_t id = d.channel;
    id = id << rank_bits_ | d.rank;
    id = id << bank_bits_ | d.bank;
    id = id << row_bits_ | d.row;
    return id << col_bits_ | d.col;
  }

 private:
  MemoryGeometry geom_;
  unsigned offset_bits_;
  unsigned col_bits_;
  unsigned bank_bits_;
  unsigned rank_bits_;
  unsigned row_bits_;
  unsigned channel_bits_;
};

// Number of bits needed to address `n` items; `n` must be a power of two.
unsigned log2_exact(std::size_t n);
bool is_pow2(std::size_t n);

}  // namespace wompcm
