int main() { double* d; cudaMalloc(&d, 8); return 0; }
