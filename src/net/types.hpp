/// \file
/// \brief Fundamental identifiers and protocol-wide constants (paper §2.1,
/// §5.1).
#pragma once

#include <cstdint>
#include <limits>

namespace perigee::net {

/// Dense node index; every module addresses nodes by NodeId.
using NodeId = std::uint32_t;
/// Sentinel for "no node" (empty address book, unset miner, ...).
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Monotone block identifier.
using BlockId = std::uint64_t;

/// Bitcoin-like outgoing connection limit used throughout the evaluation.
inline constexpr int kDefaultOutDegree = 8;   // dout: outgoing connections
/// Bitcoin-like incoming connection cap used throughout the evaluation.
inline constexpr int kDefaultInCap = 20;      // din: incoming connection cap

/// Perigee round parameter (paper §4, §5.1): dv retained neighbors.
inline constexpr int kDefaultKeep = 6;
/// Perigee round parameter (paper §4, §5.1): |B| blocks per round for
/// Vanilla/Subset.
inline constexpr int kDefaultBlocksPerRound = 100;

/// Scoring percentile: neighbors are rated by the 90th percentile of their
/// relative delivery times.
inline constexpr double kScorePercentile = 0.90;

/// Default mean block validation time (paper §5.1: 50 ms).
inline constexpr double kDefaultValidationMs = 50.0;

}  // namespace perigee::net
