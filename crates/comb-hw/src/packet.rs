//! Packetization: messages are cut into MTU-sized packets before they enter
//! the fabric. Packet boundaries drive the per-packet costs that distinguish
//! the two transport personalities (firmware processing for the bypass NIC,
//! interrupts for the kernel NIC).

/// Split a message of `bytes` payload bytes into packet sizes of at most
/// `mtu` bytes: full `mtu` packets, then the remainder if any. A zero-byte
/// message (pure control traffic) still occupies one header-only packet,
/// reported as size 0. The sizes are computed as they are read, so
/// splitting a message allocates nothing.
pub fn packet_sizes(bytes: u64, mtu: u64) -> impl ExactSizeIterator<Item = u64> {
    let packets = packet_count(bytes, mtu) as usize;
    (0..packets).map(move |i| (bytes - i as u64 * mtu).min(mtu))
}

/// Number of packets a message of `bytes` occupies at the given `mtu`.
pub fn packet_count(bytes: u64, mtu: u64) -> u64 {
    assert!(mtu > 0, "mtu must be positive");
    if bytes == 0 {
        1
    } else {
        bytes.div_ceil(mtu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sizes(bytes: u64, mtu: u64) -> Vec<u64> {
        let it = packet_sizes(bytes, mtu);
        let n = it.len();
        let sizes: Vec<u64> = it.collect();
        assert_eq!(sizes.len(), n, "the exact size must match the items");
        sizes
    }

    #[test]
    fn exact_multiple_has_no_tail() {
        assert_eq!(sizes(8192, 4096), vec![4096, 4096]);
    }

    #[test]
    fn remainder_becomes_tail_packet() {
        assert_eq!(sizes(10_240, 4096), vec![4096, 4096, 2048]);
    }

    #[test]
    fn small_message_is_one_packet() {
        assert_eq!(sizes(1, 4096), vec![1]);
        assert_eq!(sizes(0, 4096), vec![0]);
        assert_eq!(packet_count(0, 4096), 1);
    }

    proptest! {
        #[test]
        fn sizes_sum_to_message(bytes in 0u64..10_000_000, mtu in 1u64..65_536) {
            let sizes = sizes(bytes, mtu);
            prop_assert_eq!(sizes.iter().sum::<u64>(), bytes);
            prop_assert_eq!(sizes.len() as u64, packet_count(bytes, mtu));
            // No packet exceeds the MTU; only the last may be partial.
            for (i, &s) in sizes.iter().enumerate() {
                prop_assert!(s <= mtu);
                if i + 1 < sizes.len() {
                    prop_assert_eq!(s, mtu);
                }
            }
        }
    }
}
