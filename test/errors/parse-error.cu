__global__ void k(int* a) { a[0] = ; }
