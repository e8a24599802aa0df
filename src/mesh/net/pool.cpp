#include "mesh/net/pool.hpp"

namespace mesh::net {

void PacketPool::refill(Impl& im, std::uint32_t cls) {
  const std::size_t slotSize = sizeof(SlotHeader) + kClassBytes[cls];
  const std::size_t count = kSlabBytes / slotSize > 0 ? kSlabBytes / slotSize : 1;
  const std::size_t slabSize = count * slotSize;
  auto* slab = static_cast<unsigned char*>(::operator new(slabSize));
  im.slabs.push_back(slab);
  im.slabBytes += slabSize;
  im.slotsCarved += count;
  for (std::size_t i = 0; i < count; ++i) {
    auto* h = reinterpret_cast<SlotHeader*>(slab + i * slotSize);
    h->impl = &im;
    h->cls = cls;
    void* obj = h + 1;
    *static_cast<void**>(obj) = im.freeHead[cls];
    im.freeHead[cls] = obj;
  }
}

PacketPool& PacketPool::fallbackPool() {
  thread_local PacketPool pool;
  return pool;
}

}  // namespace mesh::net
