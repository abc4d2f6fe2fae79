/** @file Unit tests for the detailed packet-level backend. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "event/event_queue.h"
#include "network/detailed/packet_network.h"

namespace astra {
namespace {

TEST(Packet, SingleSmallMessageMatchesLinkModel)
{
    // One packet over one link: serialization + latency.
    EventQueue eq;
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    PacketNetwork net(eq, topo, 4096.0);
    TimeNs delivered = -1.0;
    SendHandlers h;
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(0, 1, 4096.0, 0, kNoTag, std::move(h));
    eq.run();
    EXPECT_DOUBLE_EQ(delivered, 4096.0 / 100.0 + 500.0);
}

TEST(Packet, LargeMessagePipelinesPackets)
{
    // N packets over one link: the link serializes them back to back,
    // so delivery = N * pkt_tx + latency.
    EventQueue eq;
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    PacketNetwork net(eq, topo, 1024.0);
    TimeNs delivered = -1.0;
    SendHandlers h;
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(0, 1, 16 * 1024.0, 0, kNoTag, std::move(h));
    eq.run();
    EXPECT_DOUBLE_EQ(delivered, 16 * (1024.0 / 100.0) + 500.0);
}

TEST(Packet, MultiHopStoreAndForwardOverlaps)
{
    // Two hops: packets pipeline across links, so total time is
    // N*tx + tx + 2*latency (the last packet's extra hop).
    EventQueue eq;
    Topology topo({{BlockType::Ring, 8, 100.0, 500.0}});
    PacketNetwork net(eq, topo, 1024.0);
    TimeNs delivered = -1.0;
    SendHandlers h;
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(0, 2, 8 * 1024.0, 0, kNoTag, std::move(h));
    eq.run();
    TimeNs tx = 1024.0 / 100.0;
    EXPECT_DOUBLE_EQ(delivered, 8 * tx + tx + 2 * 500.0);
}

TEST(Packet, SwitchTraversalUsesSwitchNode)
{
    EventQueue eq;
    Topology topo({{BlockType::Switch, 4, 100.0, 250.0}});
    PacketNetwork net(eq, topo, 4096.0);
    // 4 NPUs behind one switch: 4 up links + 4 down links.
    EXPECT_EQ(net.linkCount(), 8u);
    TimeNs delivered = -1.0;
    SendHandlers h;
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(0, 3, 4096.0, 0, kNoTag, std::move(h));
    eq.run();
    // Two store-and-forward hops: 2 * (tx + latency).
    EXPECT_DOUBLE_EQ(delivered, 2 * (4096.0 / 100.0 + 250.0));
}

TEST(Packet, ContentionOnSharedLink)
{
    // NPUs 1 and 3 both send to 2 via their direct ring links --
    // no shared link, so they land together; but two messages from
    // the same source serialize.
    EventQueue eq;
    Topology topo({{BlockType::Ring, 4, 100.0, 0.0}});
    PacketNetwork net(eq, topo, 1024.0);
    std::vector<TimeNs> delivered;
    for (int i = 0; i < 2; ++i) {
        SendHandlers h;
        h.onDelivered = [&] { delivered.push_back(eq.now()); };
        net.simSend(0, 1, 1024.0, 0, kNoTag, std::move(h));
    }
    eq.run();
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_DOUBLE_EQ(delivered[0], 1024.0 / 100.0);
    EXPECT_DOUBLE_EQ(delivered[1], 2 * 1024.0 / 100.0);
}

TEST(Packet, FullyConnectedSplitsBandwidth)
{
    // FC(5): 4 links per NPU at bandwidth/4 each.
    EventQueue eq;
    Topology topo({{BlockType::FullyConnected, 5, 100.0, 0.0}});
    PacketNetwork net(eq, topo, 4096.0);
    TimeNs delivered = -1.0;
    SendHandlers h;
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(0, 3, 4096.0, 0, kNoTag, std::move(h));
    eq.run();
    EXPECT_DOUBLE_EQ(delivered, 4096.0 / 25.0);
}

TEST(Packet, AutoRouteAcrossDims)
{
    EventQueue eq;
    Topology topo({{BlockType::Ring, 4, 100.0, 100.0},
                   {BlockType::Switch, 2, 50.0, 200.0}});
    PacketNetwork net(eq, topo, 4096.0);
    NpuId src = topo.idOf({0, 0});
    NpuId dst = topo.idOf({1, 1});
    TimeNs delivered = -1.0;
    SendHandlers h;
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(src, dst, 4096.0, kAutoRoute, kNoTag, std::move(h));
    eq.run();
    // Ring hop (tx@100 + 100ns) then two switch hops (tx@50 + 200ns
    // each), store-and-forward.
    TimeNs expect =
        (4096.0 / 100.0 + 100.0) + 2 * (4096.0 / 50.0 + 200.0);
    EXPECT_DOUBLE_EQ(delivered, expect);
}

TEST(Packet, InjectionCallbackBeforeDelivery)
{
    EventQueue eq;
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    PacketNetwork net(eq, topo, 1024.0);
    TimeNs injected = -1.0, delivered = -1.0;
    SendHandlers h;
    h.onInjected = [&] { injected = eq.now(); };
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(0, 1, 4 * 1024.0, 0, kNoTag, std::move(h));
    eq.run();
    EXPECT_DOUBLE_EQ(injected, 4 * 1024.0 / 100.0);
    EXPECT_DOUBLE_EQ(delivered, injected + 500.0);
}

// ---------------------------------------------------------------------
// Regression pins. Each scenario below records what the backend
// produces on contended, faulted and overhead-laden traffic: the
// simulated end time, the executed-event count, per-dim payload bytes
// and busy time, the busiest link, per-job owner attribution and every
// injection/delivery time. The expected values were recorded from the
// eager implementation that scheduled every first-hop packet arrival
// at launch; packet trains must reproduce them bit for bit.

struct Outcome
{
    TimeNs end = 0.0;
    uint64_t events = 0;
    std::vector<double> bytes;
    std::vector<double> busy;
    double maxBusy = 0.0;
    std::vector<double> ownerA;
    std::vector<double> ownerB;
    std::vector<TimeNs> injected; //!< in injection order.
    std::vector<TimeNs> delivered; //!< in delivery order.
};

/** Drives one PacketNetwork; sends record their handler times. */
class Scenario
{
  public:
    Scenario(std::vector<Dimension> dims, Bytes packet, Bytes header = 0.0,
             TimeNs overhead = 0.0)
         : topo_(std::move(dims)), net_(eq_, topo_, packet, header, overhead),
          ownerA_(topo_.numDims(), 0.0), ownerB_(topo_.numDims(), 0.0)
    {
    }

    EventQueue &eq() { return eq_; }
    PacketNetwork &net() { return net_; }
    const Topology &topo() const { return topo_; }

    /** Send now, attributed to job 0 (A), 1 (B) or none (-1). */
    void
    send(NpuId src, NpuId dst, Bytes bytes, int dim = 0, int job = -1,
         std::function<void()> then = nullptr)
    {
         net_.setSendOwner(job == 0 ? &ownerA_
                          : job == 1 ? &ownerB_
                                     : nullptr);
         SendHandlers h;
         h.onInjected = [this] { out_.injected.push_back(eq_.now()); };
        h.onDelivered = [this, then = std::move(then)] {
            out_.delivered.push_back(eq_.now());
            if (then)
                then();
        };
        net_.simSend(src, dst, bytes, dim, kNoTag, std::move(h));
        net_.setSendOwner(nullptr);
    }

    /** Run `fn` at absolute time `when`. */
    void
    at(TimeNs when, std::function<void()> fn)
    {
         eq_.scheduleAt(when, [fn = std::move(fn)] { fn(); });
    }

    Outcome
    run()
    {
         out_.end = eq_.run();
         out_.events = eq_.executedEvents();
         out_.bytes = net_.stats().bytesPerDim;
         out_.busy = net_.stats().busyTimePerDim;
         out_.maxBusy = net_.stats().maxLinkBusyNs;
         out_.ownerA = ownerA_;
         out_.ownerB = ownerB_;
         return out_;
    }

  private:
    EventQueue eq_;
    Topology topo_;
    PacketNetwork net_;
    std::vector<double> ownerA_;
    std::vector<double> ownerB_;
    Outcome out_;
};

/** Exact (bit-level) comparison of every recorded figure. */
void
expectOutcome(const Outcome &got, const Outcome &want)
{
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.busy, want.busy);
    EXPECT_EQ(got.maxBusy, want.maxBusy);
    EXPECT_EQ(got.ownerA, want.ownerA);
    EXPECT_EQ(got.ownerB, want.ownerB);
    EXPECT_EQ(got.injected, want.injected);
    EXPECT_EQ(got.delivered, want.delivered);
}

TEST(PacketPinned, MessageOverhead)
{
    // Header bytes and a per-message launch cost, with sends issued
    // both up front and from inside the run.
    Scenario s({{BlockType::Ring, 8, 100.0, 500.0}}, 1024.0, 40.0, 250.0);
    s.send(0, 1, 8192.0, 0, 0);
    s.send(0, 3, 5000.0, 0, 1);
    s.send(2, 1, 3072.0, 0, 0);
    s.at(1000.0, [&] { s.send(0, 1, 4096.0, 0, 1); });
    s.at(1100.0, [&] { s.send(7, 5, 2048.0, 0, 0); });
    const Outcome want{
        2381.92,
        46u,
        {22408.0},
        {358.15999999999974},
        179.67999999999995,
        {159.59999999999997},
        {198.55999999999995},
        {281.91999999999996, 335.1199999999999, 387.11999999999983,
         1292.5600000000004, 1371.2800000000002},
        {781.92, 835.1199999999999, 1792.5600000000004, 1908.4000000000003,
         2381.92}
    };
    expectOutcome(s.run(), want);
}

TEST(PacketPinned, PartialLastPacket)
{
    // Payloads that are not a multiple of the packet size, one- and
    // two-hop, plus deliveries that immediately send more (the message
    // pool grows while a first-hop arrival is being handled).
    Scenario s({{BlockType::Ring, 4, 100.0, 500.0}}, 1024.0);
    s.send(0, 1, 10 * 1024.0 + 300.0, 0, 0, [&] {
        for (NpuId d : {0, 2, 3})
            s.send(1, d, 777.5 + 100.0 * double(d), 0, 1);
    });
    s.send(1, 3, 5 * 1024.0 + 1.25, 0, 1);
    s.send(3, 2, 0.5, 0, 0);
    const Outcome want{
        1636.19,
        36u,
        {18494.25},
        {246.93000000000004},
        105.39999999999999,
        {105.40499999999999},
        {141.525},
        {0.005, 51.212500000000006, 105.39999999999999, 613.175, 615.175,
         625.9499999999999},
        {500.005, 605.4, 1061.4525, 1113.175, 1115.175, 1636.19}
    };
    expectOutcome(s.run(), want);
}

TEST(PacketPinned, ContendedMultiHopSwitchPath)
{
    // Incast through a switch after a ring hop: every source's train
    // contends for the same switch down-link at the destination.
    Scenario s({{BlockType::Ring, 2, 150.0, 300.0},
                {BlockType::Switch, 4, 50.0, 200.0}},
               2048.0, 64.0);
    const NpuId dst = s.topo().idOf({0, 3});
    int job = 0;
    for (NpuId src = 0; src < s.topo().npus(); ++src) {
        if (src == dst)
            continue;
        s.send(src, dst, 6000.0 + 1000.0 * double(src), kAutoRoute, job);
        job = 1 - job;
    }
    s.at(400.0, [&] { s.send(s.topo().idOf({1, 0}), dst, 9000.0,
                             kAutoRoute, 0); });
    const Outcome want{
        1683.2000000000005,
        100u,
        {49000.0, 24000.0},
        {338.18666666666667, 2481.9199999999987},
        1240.9600000000003,
        {151.7866666666667, 1363.5200000000002},
        {186.40000000000003, 1118.4},
        {48.373333333333335, 62.13333333333333, 75.89333333333335,
         89.65333333333334, 123.84, 165.12, 206.4, 462.13333333333327},
        {389.6533333333333, 735.0400000000001, 857.9200000000001,
         937.6000000000001, 1336.1600000000003, 1438.0800000000004,
         1496.8000000000004, 1683.2000000000005}
    };
    expectOutcome(s.run(), want);
}

TEST(PacketPinned, FirstHopDownAtLaunchThenRestored)
{
    Scenario s({{BlockType::Ring, 4, 100.0, 500.0}}, 1024.0);
    s.net().setLinkUp(0, 1, 0, false);
    s.send(0, 1, 6 * 1024.0, 0, 0);
    s.send(0, 2, 4 * 1024.0 + 10.0, 0, 1);
    s.send(1, 2, 3 * 1024.0, 0, 0);
    s.at(3000.0, [&] { s.net().setLinkUp(0, 1, 0, true); });
    s.at(3000.0, [&] { s.send(0, 1, 2048.0, 0, 1); });
    const Outcome want{
        4112.739999999998,
        27u,
        {15370.0},
        {194.76000000000002},
        122.97999999999998,
        {92.16},
        {102.59999999999998},
        {0.0, 0.0, 30.72, 3122.9799999999973},
        {530.72, 3561.4399999999987, 3622.9799999999973, 4112.739999999998}
    };
    expectOutcome(s.run(), want);
}

TEST(PacketPinned, LinkDegradedMidTrain)
{
    // The first hop's claims were made at launch, so degrading it
    // mid-train moves only later messages; the second hop degrades
    // under the train's packets.
    Scenario s({{BlockType::Ring, 4, 100.0, 500.0}}, 1024.0, 16.0);
    s.send(0, 2, 64 * 1024.0 + 512.0, 0, 0);
    s.at(200.0, [&] {
        s.net().setLinkCapacityScale(0, 1, 0, 0.25);
        s.net().setLinkCapacityScale(1, 2, 0, 0.5);
    });
    s.at(300.0, [&] { s.send(0, 1, 4096.0, 0, 1); });
    s.at(5000.0, [&] { s.net().setLinkCapacityScale(1, 2, 0, 1.0); });
    const Outcome want{
        5000.0,
        139u,
        {70144.0},
        {2179.0399999999977},
        1341.7599999999984,
        {2012.6399999999962},
        {166.4},
        {670.8799999999992, 837.2799999999993},
        {1337.2799999999993, 2352.159999999997}
    };
    expectOutcome(s.run(), want);
}

TEST(PacketPinned, LinkDownMidTrain)
{
    // A train keeps arriving over a first hop taken down after launch;
    // its packets park at the downed second hop and resume on restore,
    // and a send into the downed first hop parks until it comes back.
    Scenario s({{BlockType::Ring, 8, 100.0, 500.0}}, 1024.0);
    s.send(0, 3, 32 * 1024.0, 0, 0);
    s.send(2, 1, 8 * 1024.0, 0, 1);
    s.at(100.0, [&] { s.net().setLinkUp(1, -1, 0, false); });
    s.at(150.0, [&] { s.net().setLinkUp(0, 1, 0, false); });
    s.at(200.0, [&] { s.send(0, 1, 3 * 1024.0, 0, 1); });
    s.at(900.0, [&] { s.net().setLinkUp(1, -1, 0, true); });
    s.at(1500.0, [&] { s.net().setLinkUp(0, 1, 0, true); });
    const Outcome want{
        2237.92,
        115u,
        {44032.0},
        {1095.6800000000007},
        358.40000000000015,
        {983.0400000000006},
        {112.63999999999999},
        {81.92, 327.6800000000001, 327.6800000000001},
        {581.92, 2030.72, 2237.92}
    };
    expectOutcome(s.run(), want);
}

TEST(PacketPinned, ZeroByteMessagesOnZeroLatencyLinks)
{
    // A zero-byte message on a zero-latency link arrives at the time it
    // is sent, queued behind the events already due then.
    Scenario s({{BlockType::Ring, 4, 100.0, 0.0}}, 1024.0);
    s.send(0, 1, 0.0, 0, 0, [&] { s.send(1, 2, 0.0, 0, 1); });
    s.send(0, 1, 2048.0, 0, 1);
    s.at(0.0, [&] { s.send(2, 3, 0.0, 0, 0); });
    s.at(10.0, [&] {
        s.send(3, 0, 1024.0, 0, 0);
        s.send(3, 0, 0.0, 0, 1);
    });
    const Outcome want{
        20.48,
        15u,
        {3072.0},
        {30.72},
        20.48,
        {10.24},
        {20.48},
        {0.0, 0.0, 0.0, 20.240000000000002, 20.240000000000002, 20.48},
        {0.0, 0.0, 0.0, 20.240000000000002, 20.240000000000002, 20.48}
    };
    expectOutcome(s.run(), want);
}

TEST(Packet, FirstHopTrainKeepsPendingEventsBounded)
{
    // One 1000-packet one-hop message: only the next packet's arrival
    // waits in the queue, never one event per packet.
    EventQueue eq;
    Topology topo({{BlockType::Ring, 4, 100.0, 500.0}});
    PacketNetwork net(eq, topo, 1024.0);
    TimeNs injected = -1.0, delivered = -1.0;
    SendHandlers h;
    h.onInjected = [&] { injected = eq.now(); };
    h.onDelivered = [&] { delivered = eq.now(); };
    net.simSend(0, 1, 1000 * 1024.0, 0, kNoTag, std::move(h));
    size_t peak = eq.pending();
    while (eq.step())
        peak = std::max(peak, eq.pending());
    EXPECT_LE(peak, 3u);
    EXPECT_EQ(eq.executedEvents(), 1001u);
    EXPECT_NEAR(injected, 1000 * (1024.0 / 100.0), 1e-6);
    EXPECT_EQ(delivered, injected + 500.0);
}

} // namespace
} // namespace astra
